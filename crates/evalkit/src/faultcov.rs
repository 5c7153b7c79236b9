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

use std::collections::BTreeMap;
use std::fmt;

use mfm_gatesim::fault::{sample_stuck_sites, CampaignRunner, CampaignStats};
use mfm_gatesim::netlist::Netlist;
use mfm_gatesim::report::Table;
use mfm_gatesim::tech::TechLibrary;
use mfm_gatesim::{CompiledFaultSim, CompiledNetlist, FaultKind, FaultOutcome, LANES};
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

/// Runs the campaign described by `config` on the event-driven simulator
/// and aggregates the report.
pub fn fault_coverage(config: &FaultCoverageConfig) -> FaultCoverageReport {
    let (n, ports, formats) = campaign_unit(config);
    let sites = sample_stuck_sites(&n, config.sites, config.seed);
    let runner = CampaignRunner::new(&n, sites);
    let sites_run = runner.sites().len();
    let reference = FunctionalUnit::new();
    let mut tally = Tally::new(&formats);
    let mut site_idx: u64 = 0;
    let blocks = runner.run(|sim, _site| {
        site_idx += 1;
        let mut gen = site_gen(config.seed, site_idx);
        let mut outcomes = Vec::new();
        for &fmt in &formats {
            for _ in 0..config.vectors_per_format {
                let op = gen.operation(fmt);
                let raw = run_raw(sim, &ports, op);
                outcomes.push(classify(op, &raw, &reference, &mut tally));
            }
        }
        outcomes
    });
    tally.into_report(config, sites_run, blocks)
}

/// [`fault_coverage`] accelerated by the compiled bit-parallel engine
/// and deterministic thread sharding.
///
/// Sites are packed [`LANES`] (256) to a shard — one stuck-at fault
/// machine per lane of the `[u64; 4]` word — so a single propagation
/// pass classifies up to 256 faults against one vector. Shards run on up to `threads` scoped worker
/// threads ([`crate::shard::run_shards`]) and their partial statistics
/// merge in shard order.
///
/// The report is **bit-identical** to [`fault_coverage`] for the same
/// config at any `threads` value (including 1): every site derives its
/// operand stream from the campaign seed and its global site index —
/// exactly as the sequential campaign does — and each (site, vector)
/// classification is a pure function of those inputs, because the
/// compiled engine's settled values equal the event-driven simulator's
/// (see [`mfm_gatesim::compiled`]). `tests/compiled_equivalence.rs`
/// asserts the report equality wholesale.
pub fn fault_coverage_parallel(
    config: &FaultCoverageConfig,
    threads: usize,
) -> FaultCoverageReport {
    let (n, ports, formats) = campaign_unit(config);
    let sites = sample_stuck_sites(&n, config.sites, config.seed);
    let prog = CompiledNetlist::compile(&n).expect("campaign netlist is acyclic");

    let shard_count = sites.len().div_ceil(LANES);
    let partials: Vec<(CampaignStats, Tally)> = run_shards(shard_count, threads, |k| {
        let shard_sites = &sites[k * LANES..((k + 1) * LANES).min(sites.len())];
        let mut fsim = CompiledFaultSim::new(&prog);
        let mut stats = CampaignStats::default();
        let mut gens: Vec<OperandGen> = Vec::with_capacity(shard_sites.len());
        for (lane, site) in shard_sites.iter().enumerate() {
            stats.add_site(&site.block);
            let forced = match site.kind {
                FaultKind::StuckAt0 => false,
                FaultKind::StuckAt1 => true,
                FaultKind::Transient { .. } => {
                    unreachable!("stuck-at site universe contains no transients")
                }
            };
            fsim.assign_fault(lane, site.net, forced);
            gens.push(site_gen(config.seed, (k * LANES + lane) as u64 + 1));
        }
        let reference = FunctionalUnit::new();
        let mut tally = Tally::new(&formats);
        for &fmt in &formats {
            for _ in 0..config.vectors_per_format {
                let ops: Vec<Operation> = gens.iter_mut().map(|g| g.operation(fmt)).collect();
                let raws = run_raw_compiled(&mut fsim, &ports, &ops);
                for ((site, &op), raw) in shard_sites.iter().zip(&ops).zip(&raws) {
                    stats.record(&site.block, classify(op, raw, &reference, &mut tally));
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
    use mfm_gatesim::Simulator;

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
