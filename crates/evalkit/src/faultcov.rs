//! Seeded Monte-Carlo fault-coverage campaign for the self-checking unit.
//!
//! For every sampled stuck-at site (see
//! [`mfm_gatesim::fault::enumerate_stuck_sites`]) the campaign drives a
//! deterministic operand mix through the faulted gate-level unit and
//! classifies each vector against the bit-exact functional reference:
//!
//! - **masked** — the delivered `PH`/`PL`/flags are unaffected;
//! - **detected** — the result is corrupt and
//!   [`mfmult::selfcheck::check_raw`] rejects it (the detection is
//!   attributed to the first checker tier that fired: residue, injection
//!   invariant, product identity or output recompute);
//! - **silent** — the result is corrupt and every check passed. This is
//!   the outcome a self-checking design must drive to zero.
//!
//! Results aggregate per hardware block (`PPGEN`, `TREE`, `CPA`, …) and
//! per operand format, so the report answers the two questions the
//! robustness study asks: *where* do undetected faults live, and *which
//! formats* exercise them. The whole campaign is a pure function of
//! [`FaultCoverageConfig`] — same seed, same report.
//!
//! One campaign body serves both entry points. It samples the sites,
//! packs them [`LANES`] to a shard, gives every site its own operand
//! stream (drawn format by format, vector by vector) and classifies what
//! comes back. The entry points differ only in the engine that evaluates
//! a shard:
//!
//! - [`fault_coverage`] — the event-driven [`Simulator`], one site at a
//!   time on one thread: inject, settle, the site's vectors, clear,
//!   settle. It is the reference the compiled campaign is held to.
//! - [`fault_coverage_parallel`] — one compiled [`CompiledSim`] per
//!   shard, lane `l` stuck at site `l`'s fault, one pass per (format,
//!   vector) step, shards on worker threads.
//!
//! The two reports are bit-identical for the same config.

use std::collections::BTreeMap;
use std::fmt;

use mfm_gatesim::fault::{sample_stuck_sites, CampaignStats};
use mfm_gatesim::netlist::Netlist;
use mfm_gatesim::report::Table;
use mfm_gatesim::tech::TechLibrary;
use mfm_gatesim::{lane_mask, CompiledNetlist, CompiledSim, FaultOutcome, Simulator, LANES};
use mfm_telemetry::Registry;
use mfmult::selfcheck::{check_raw, run_raw, run_raw_compiled, CheckError, RawOutputs};
use mfmult::{structural, Format, FunctionalUnit, MultResult, Operation, StructuralPorts};

use crate::shard::run_shards;
use crate::workload::OperandGen;

/// Campaign parameters. The report is a deterministic function of this
/// struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCoverageConfig {
    /// Seed for site sampling and operand generation.
    pub seed: u64,
    /// Number of stuck-at sites to sample from the netlist.
    pub sites: usize,
    /// Operand vectors driven per site *per format*.
    pub vectors_per_format: usize,
    /// Build the unit with the quad-binary16 extension lanes (adds the
    /// fifth format to the mix).
    pub quad_lanes: bool,
}

impl FaultCoverageConfig {
    /// A small smoke-test campaign.
    pub fn quick(seed: u64) -> Self {
        FaultCoverageConfig {
            seed,
            sites: 40,
            vectors_per_format: 2,
            quad_lanes: false,
        }
    }

    /// The full campaign of the robustness study: ≥500 stuck-at sites,
    /// four vectors per site and format.
    pub fn full(seed: u64) -> Self {
        FaultCoverageConfig {
            seed,
            sites: 500,
            vectors_per_format: 4,
            quad_lanes: false,
        }
    }
}

/// Masked/detected/silent counters (one classification per vector).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Vectors whose delivered result was unaffected.
    pub masked: u64,
    /// Corrupted vectors rejected by the checker.
    pub detected: u64,
    /// Corrupted vectors no check caught.
    pub silent: u64,
}

impl OutcomeCounts {
    fn record(&mut self, outcome: FaultOutcome) {
        match outcome {
            FaultOutcome::Masked => self.masked += 1,
            FaultOutcome::Detected => self.detected += 1,
            FaultOutcome::Silent => self.silent += 1,
        }
    }

    /// Total classified vectors.
    pub fn ops(&self) -> u64 {
        self.masked + self.detected + self.silent
    }

    /// Detected fraction of corrupting vectors (1.0 when nothing
    /// corrupted).
    pub fn detection_rate(&self) -> f64 {
        let corrupted = self.detected + self.silent;
        if corrupted == 0 {
            1.0
        } else {
            self.detected as f64 / corrupted as f64
        }
    }
}

/// Results of one fault-coverage campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultCoverageReport {
    /// The configuration that produced this report.
    pub config: FaultCoverageConfig,
    /// Sites actually run (≤ `config.sites`, bounded by the netlist).
    pub sites_run: usize,
    /// Outcomes per hardware block.
    pub blocks: CampaignStats,
    /// Outcomes per operand format.
    pub formats: BTreeMap<&'static str, OutcomeCounts>,
    /// Detections attributed to the first checker tier that fired.
    pub detections_by_tier: BTreeMap<&'static str, u64>,
}

impl FaultCoverageReport {
    /// Total silent corruptions across the campaign (the robustness
    /// study requires this to be zero).
    pub fn silent(&self) -> u64 {
        self.blocks.totals().silent
    }

    /// Overall detection rate over corrupting vectors.
    pub fn detection_rate(&self) -> f64 {
        self.blocks.totals().detection_rate()
    }

    /// Detections caught by the cheap residue tier alone (mod 3/15).
    pub fn residue_detections(&self) -> u64 {
        self.detections_by_tier.get("residue").copied().unwrap_or(0)
    }

    /// Adds the campaign's final totals to `registry`: the counters
    /// `faultcov.{sites_done, vectors, masked, detected, silent}` and the
    /// gauge `faultcov.detection_rate`.
    pub fn publish(&self, registry: &Registry) {
        let totals = self.blocks.totals();
        registry
            .counter("faultcov.sites_done")
            .add(self.sites_run as u64);
        registry.counter("faultcov.vectors").add(totals.ops());
        registry.counter("faultcov.masked").add(totals.masked);
        registry.counter("faultcov.detected").add(totals.detected);
        registry.counter("faultcov.silent").add(totals.silent);
        registry
            .gauge("faultcov.detection_rate")
            .set(totals.detection_rate());
    }
}

impl fmt::Display for FaultCoverageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Stuck-at fault-coverage campaign: {} sites, {} vectors/format, seed {:#x}",
            self.sites_run, self.config.vectors_per_format, self.config.seed
        )?;
        writeln!(f)?;
        writeln!(f, "Per hardware block:")?;
        writeln!(f, "{}", self.blocks.table())?;
        writeln!(f, "Per operand format:")?;
        let mut t = Table::new(&["format", "ops", "masked", "detected", "silent", "det.rate"]);
        for (name, c) in &self.formats {
            t.row_owned(vec![
                name.to_string(),
                c.ops().to_string(),
                c.masked.to_string(),
                c.detected.to_string(),
                c.silent.to_string(),
                format!("{:.3}", c.detection_rate()),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "Detections by first-firing checker tier:")?;
        let mut t = Table::new(&["tier", "detections"]);
        for (tier, n) in &self.detections_by_tier {
            t.row_owned(vec![tier.to_string(), n.to_string()]);
        }
        write!(f, "{t}")
    }
}

fn format_name(f: Format) -> &'static str {
    match f {
        Format::Int64 => "int64",
        Format::Binary64 => "binary64",
        Format::DualBinary32 => "dual binary32",
        Format::SingleBinary32 => "single binary32",
        Format::QuadBinary16 => "quad binary16",
    }
}

fn tier_name(e: CheckError) -> &'static str {
    match e {
        CheckError::Residue { .. } => "residue",
        CheckError::InjectionInvariant { .. } => "injection invariant",
        CheckError::ProductIdentity { .. } => "product identity",
        CheckError::OutputMismatch => "output recompute",
    }
}

/// The delivered-output view of a functional result: what the hardware
/// ports would carry for this operation (the structural flag bus has no
/// inexact wire, and the quad extension reports no flags).
pub fn hardware_view(r: &MultResult) -> (u64, u64, u8) {
    let lane = |f: mfm_softfloat::Flags| {
        (f.invalid() as u8) | ((f.overflow() as u8) << 1) | ((f.underflow() as u8) << 2)
    };
    match r.format {
        Format::Int64 => (r.ph, r.pl, 0),
        Format::QuadBinary16 => (r.ph, 0, 0),
        _ => (r.ph, 0, lane(r.flags_lo) | (lane(r.flags_hi) << 3)),
    }
}

/// Per-format outcome counts and first-firing checker tiers of the
/// vectors one campaign (or one shard of it) classified.
struct Tally {
    per_format: BTreeMap<&'static str, OutcomeCounts>,
    by_tier: BTreeMap<&'static str, u64>,
}

impl Tally {
    fn new(formats: &[Format]) -> Self {
        Tally {
            per_format: formats
                .iter()
                .map(|&f| (format_name(f), OutcomeCounts::default()))
                .collect(),
            by_tier: BTreeMap::new(),
        }
    }

    fn merge(&mut self, other: &Tally) {
        for (name, c) in &other.per_format {
            let e = self.per_format.entry(name).or_default();
            e.masked += c.masked;
            e.detected += c.detected;
            e.silent += c.silent;
        }
        for (tier, n) in &other.by_tier {
            *self.by_tier.entry(tier).or_insert(0) += n;
        }
    }

    fn into_report(
        self,
        config: &FaultCoverageConfig,
        sites_run: usize,
        blocks: CampaignStats,
    ) -> FaultCoverageReport {
        FaultCoverageReport {
            config: *config,
            sites_run,
            blocks,
            formats: self.per_format,
            detections_by_tier: self.by_tier,
        }
    }
}

/// Classifies one vector's delivered outputs `raw` against the
/// functional reference and records the outcome in `tally`.
fn classify(
    op: Operation,
    raw: &RawOutputs,
    reference: &FunctionalUnit,
    tally: &mut Tally,
) -> FaultOutcome {
    let outcome = if (raw.ph, raw.pl, raw.flags) == hardware_view(&reference.execute(op)) {
        FaultOutcome::Masked
    } else {
        match check_raw(op, raw) {
            Err(e) => {
                *tally.by_tier.entry(tier_name(e)).or_insert(0) += 1;
                FaultOutcome::Detected
            }
            Ok(()) => FaultOutcome::Silent,
        }
    };
    tally
        .per_format
        .get_mut(format_name(op.format))
        .expect("campaign drives only its own formats")
        .record(outcome);
    outcome
}

/// The faulted unit and the formats the campaign drives, in order.
fn campaign_unit(config: &FaultCoverageConfig) -> (Netlist, StructuralPorts, Vec<Format>) {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let mut formats = Format::ALL.to_vec();
    let ports = if config.quad_lanes {
        formats.push(Format::QuadBinary16);
        structural::build_unit_quad(&mut n)
    } else {
        structural::build_unit(&mut n)
    };
    (n, ports, formats)
}

/// The operand stream of the 1-based global site `site_idx`, derived from
/// the campaign seed so that a site's classification does not depend on
/// which sites were sampled before it or which shard runs it.
fn site_gen(seed: u64, site_idx: u64) -> OperandGen {
    OperandGen::new(seed ^ site_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The engine a shard's faulty machines run on (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Evaluator {
    /// The event-driven [`Simulator`], one site at a time.
    EventDriven,
    /// A [`CompiledSim`], one site per lane.
    Compiled,
}

/// Runs the campaign described by `config` on the event-driven simulator
/// and aggregates the report.
///
/// This is the reference [`fault_coverage_parallel`] is held to: it runs
/// on one thread and settles every site's injection and repair
/// event by event.
pub fn fault_coverage(config: &FaultCoverageConfig) -> FaultCoverageReport {
    campaign(config, Evaluator::EventDriven, 1)
}

/// [`fault_coverage`] accelerated by the compiled bit-parallel engine
/// and deterministic thread sharding.
///
/// Each shard of up to [`LANES`] (256) sites runs on one
/// [`CompiledSim`] — one stuck-at fault machine per lane of the
/// `[u64; 4]` word — so a single propagation pass classifies up to 256
/// faults against one vector each. Shards run on up to `threads` scoped
/// worker threads ([`crate::shard::run_shards`]) and their partial
/// statistics merge in shard order.
///
/// The report is **bit-identical** to [`fault_coverage`] for the same
/// config at any `threads` value (including 1): both run the same site
/// loop, every site derives its operand stream from the campaign seed
/// and its global site index, and each (site, vector) classification is
/// a pure function of those inputs, because the compiled engine's
/// settled values equal the event-driven simulator's (see
/// [`mfm_gatesim::compiled`]). `tests/compiled_equivalence.rs` asserts
/// the report equality wholesale.
pub fn fault_coverage_parallel(
    config: &FaultCoverageConfig,
    threads: usize,
) -> FaultCoverageReport {
    campaign(config, Evaluator::Compiled, threads)
}

/// The campaign body behind both public names: builds the unit, samples
/// the sites, packs them [`LANES`] to a shard, draws each site's
/// [`site_gen`] stream in format-then-vector order, and classifies,
/// tallies and merges what `evaluator` delivers for every (site, vector).
fn campaign(
    config: &FaultCoverageConfig,
    evaluator: Evaluator,
    threads: usize,
) -> FaultCoverageReport {
    let (n, ports, formats) = campaign_unit(config);
    let sites = sample_stuck_sites(&n, config.sites, config.seed);
    let prog = (evaluator == Evaluator::Compiled)
        .then(|| CompiledNetlist::compile(&n).expect("campaign netlist is acyclic"));
    // The format of every (format, vector) step, in stream order.
    let steps: Vec<Format> = formats
        .iter()
        .flat_map(|&f| std::iter::repeat_n(f, config.vectors_per_format))
        .collect();

    let shard_count = sites.len().div_ceil(LANES);
    let partials: Vec<(CampaignStats, Tally)> = run_shards(shard_count, threads, |k| {
        let shard = &sites[k * LANES..((k + 1) * LANES).min(sites.len())];
        let mut gens: Vec<OperandGen> = (0..shard.len())
            .map(|lane| site_gen(config.seed, (k * LANES + lane) as u64 + 1))
            .collect();
        let reference = FunctionalUnit::new();
        let mut stats = CampaignStats::default();
        let mut tally = Tally::new(&formats);
        for site in shard {
            stats.add_site(&site.block);
        }
        let mut record = |lane: usize, op: Operation, raw: &RawOutputs| {
            let outcome = classify(op, raw, &reference, &mut tally);
            stats.record(&shard[lane].block, outcome);
        };
        match &prog {
            Some(prog) => {
                let mut sim = CompiledSim::new(prog);
                for (lane, site) in shard.iter().enumerate() {
                    sim.inject_stuck_at(site.net, lane_mask(lane), site.value);
                }
                for &fmt in &steps {
                    let ops: Vec<Operation> = gens.iter_mut().map(|g| g.operation(fmt)).collect();
                    let raws = run_raw_compiled(&mut sim, &ports, &ops);
                    for (lane, (&op, raw)) in ops.iter().zip(&raws).enumerate() {
                        record(lane, op, raw);
                    }
                }
            }
            None => {
                let mut sim = Simulator::new(&n);
                for (lane, (site, gen)) in shard.iter().zip(&mut gens).enumerate() {
                    sim.inject_stuck_at(site.net, site.value);
                    sim.settle();
                    for &fmt in &steps {
                        let op = gen.operation(fmt);
                        record(lane, op, &run_raw(&mut sim, &ports, op));
                    }
                    sim.clear_faults();
                    sim.settle();
                }
            }
        }
        (stats, tally)
    });

    let mut blocks = CampaignStats::default();
    let mut tally = Tally::new(&formats);
    for (stats, part) in &partials {
        blocks.merge(stats);
        tally.merge(part);
    }
    tally.into_report(config, sites.len(), blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On healthy hardware the functional "hardware view" must equal the
    /// delivered ports bit for bit — the campaign's corruption test is
    /// only sound if this holds for every format.
    #[test]
    fn healthy_hardware_matches_functional_view() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let ports = structural::build_unit_quad(&mut n);
        let mut sim = Simulator::new(&n);
        let reference = FunctionalUnit::new();
        let mut gen = OperandGen::new(0xFCC5);
        let formats = [
            Format::Int64,
            Format::Binary64,
            Format::DualBinary32,
            Format::SingleBinary32,
            Format::QuadBinary16,
        ];
        for round in 0..6 {
            for &fmt in &formats {
                let op = gen.operation(fmt);
                let raw = run_raw(&mut sim, &ports, op);
                let golden = hardware_view(&reference.execute(op));
                assert_eq!((raw.ph, raw.pl, raw.flags), golden, "round {round}: {op:?}");
            }
        }
    }

    #[test]
    fn published_counters_match_report() {
        let cfg = FaultCoverageConfig {
            seed: 11,
            sites: 4,
            vectors_per_format: 1,
            quad_lanes: false,
        };
        let registry = Registry::new();
        let report = fault_coverage(&cfg);
        report.publish(&registry);
        let totals = report.blocks.totals();
        assert_eq!(registry.counter("faultcov.sites_done").get(), 4);
        assert_eq!(registry.counter("faultcov.vectors").get(), totals.ops());
        assert_eq!(registry.counter("faultcov.masked").get(), totals.masked);
        assert_eq!(registry.counter("faultcov.detected").get(), totals.detected);
        assert_eq!(registry.counter("faultcov.silent").get(), totals.silent);
        let rate = registry.gauge("faultcov.detection_rate").get();
        assert!((rate - totals.detection_rate()).abs() < 1e-12);
    }

    #[test]
    fn parallel_campaign_is_bit_identical_to_sequential() {
        // 66 sites so the lane packing crosses a shard boundary.
        let cfg = FaultCoverageConfig {
            seed: 2017,
            sites: 66,
            vectors_per_format: 1,
            quad_lanes: false,
        };
        let sequential = fault_coverage(&cfg);
        let inline = fault_coverage_parallel(&cfg, 1);
        let threaded = fault_coverage_parallel(&cfg, 4);
        assert_eq!(inline, sequential, "compiled path must match event-driven");
        assert_eq!(threaded, inline, "thread count must not change the report");
    }

    #[test]
    fn quad_campaign_pins_its_counts_and_is_bit_identical_to_sequential() {
        // The quad unit adds the quad binary16 lanes as a fifth format.
        let cfg = FaultCoverageConfig {
            seed: 2017,
            sites: 66,
            vectors_per_format: 1,
            quad_lanes: true,
        };
        let sequential = fault_coverage(&cfg);
        let totals = sequential.blocks.totals();
        assert_eq!(totals.ops(), 330);
        assert_eq!((totals.detected, totals.silent), (47, 0));
        let quad = sequential.formats["quad binary16"];
        assert_eq!((quad.masked, quad.detected, quad.silent), (63, 3, 0));
        assert_eq!(fault_coverage_parallel(&cfg, 1), sequential);
        assert_eq!(fault_coverage_parallel(&cfg, 4), sequential);
    }

    #[test]
    fn tiny_campaign_is_deterministic_and_consistent() {
        let cfg = FaultCoverageConfig {
            seed: 7,
            sites: 6,
            vectors_per_format: 1,
            quad_lanes: false,
        };
        let a = fault_coverage(&cfg);
        let b = fault_coverage(&cfg);
        assert_eq!(a, b, "same config must reproduce the same report");
        assert_eq!(a.sites_run, 6);
        let totals = a.blocks.totals();
        // Every vector of every site is classified exactly once, and the
        // per-format view partitions the same population.
        assert_eq!(totals.ops(), 6 * 4);
        let format_ops: u64 = a.formats.values().map(|c| c.ops()).sum();
        assert_eq!(format_ops, totals.ops());
        let format_silent: u64 = a.formats.values().map(|c| c.silent).sum();
        assert_eq!(format_silent, totals.silent);
    }
}
