//! Fault models and fault-injection campaigns.
//!
//! A shared multi-format datapath is a shared failure domain: one stuck-at
//! or particle-induced upset corrupts every format that flows through it.
//! This module provides the machinery to quantify that exposure on the
//! gate-level netlist:
//!
//! - [`FaultKind`] — stuck-at-0/1 on any net, or a transient SEU flip with
//!   a configurable time window. Faults are *overlaid* on the simulator
//!   ([`Simulator::inject_stuck_at`], [`Simulator::inject_transient`]), so
//!   a campaign over thousands of sites reuses a single netlist.
//! - [`enumerate_stuck_sites`] — every cell-output net of the netlist,
//!   both polarities, tagged with the top-level block (`PPGEN`, `TREE`,
//!   `CPA`, …) of the driving cell.
//! - [`CampaignRunner`] — injects each site, hands the faulted simulator
//!   to a caller-supplied classifier that drives operand vectors, and
//!   aggregates per-block [masked / detected / silent](FaultOutcome)
//!   counts into a [`CampaignStats`].
//!
//! The classifier is a closure so that this crate stays ignorant of
//! operand formats; `mfm-evalkit` supplies one that drives multiplier
//! operands and consults the `mfmult::selfcheck` residue checker.

use crate::netlist::{Cell, Driver, NetId, Netlist};
use crate::report::Table;
use crate::sim::Simulator;
use mfm_prng::Rng;
use std::collections::BTreeMap;

/// The supported fault models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Net permanently forced to 0.
    StuckAt0,
    /// Net permanently forced to 1.
    StuckAt1,
    /// Net inverted for a window of the given width in picoseconds, then
    /// self-healing (a single-event upset).
    Transient {
        /// Width of the upset window in picoseconds.
        width_ps: f64,
    },
}

impl FaultKind {
    /// Applies this fault to `net` on a running simulator.
    pub fn inject(self, sim: &mut Simulator<'_>, net: NetId) {
        match self {
            FaultKind::StuckAt0 => sim.inject_stuck_at(net, false),
            FaultKind::StuckAt1 => sim.inject_stuck_at(net, true),
            FaultKind::Transient { width_ps } => sim.inject_transient(net, width_ps),
        }
    }
}

/// One injectable fault location: a net plus the fault applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSite {
    /// The faulted net.
    pub net: NetId,
    /// The fault model applied at this site.
    pub kind: FaultKind,
    /// Top-level block name of the net's driving cell (`PPGEN`, `TREE`,
    /// `CPA`, …; `input` for primary inputs).
    pub block: String,
}

/// Enumerates stuck-at-0 and stuck-at-1 sites on every cell-output net,
/// in deterministic (netlist) order.
///
/// Primary inputs and constant nets are excluded: input faults are
/// operand corruptions (visible to any end-to-end check by construction)
/// and constants have no driver to fight.
pub fn enumerate_stuck_sites(netlist: &Netlist) -> Vec<FaultSite> {
    let cells = stuck_cells(netlist);
    (0..2 * cells.len())
        .map(|i| stuck_site(netlist, &cells, i))
        .collect()
}

/// The cells whose output nets carry stuck-at sites, in netlist order.
fn stuck_cells(netlist: &Netlist) -> Vec<&Cell> {
    netlist
        .cells()
        .iter()
        .filter(|c| matches!(netlist.driver(c.output), Driver::Cell(_)))
        .collect()
}

/// Site `i` of [`enumerate_stuck_sites`]: both polarities per cell.
fn stuck_site(netlist: &Netlist, cells: &[&Cell], i: usize) -> FaultSite {
    let cell = cells[i / 2];
    FaultSite {
        net: cell.output,
        kind: [FaultKind::StuckAt0, FaultKind::StuckAt1][i % 2],
        block: netlist.top_level_block_name(cell.block).to_string(),
    }
}

/// Deterministically samples `count` sites from `sites` (seeded shuffle,
/// stable across runs and platforms). Returns all sites if `count`
/// exceeds the population.
pub fn sample_sites(mut sites: Vec<FaultSite>, count: usize, seed: u64) -> Vec<FaultSite> {
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut sites);
    sites.truncate(count);
    sites
}

/// `sample_sites(enumerate_stuck_sites(netlist), count, seed)`, building
/// only the sampled sites. The seeded shuffle depends only on the
/// population size, so shuffling site indices draws the same
/// permutation.
pub fn sample_stuck_sites(netlist: &Netlist, count: usize, seed: u64) -> Vec<FaultSite> {
    let cells = stuck_cells(netlist);
    let mut order: Vec<u32> = (0..2 * cells.len() as u32).collect();
    Rng::new(seed).shuffle(&mut order);
    order.truncate(count);
    order
        .into_iter()
        .map(|i| stuck_site(netlist, &cells, i as usize))
        .collect()
}

/// Classification of one faulted operation relative to the fault-free
/// reference result and the online checker's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The delivered result was unaffected by the fault.
    Masked,
    /// The result was corrupted and the online check flagged it.
    Detected,
    /// The result was corrupted and no check fired — silent data
    /// corruption, the outcome a self-checking design must eliminate.
    Silent,
}

/// Per-block outcome counters of a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Fault sites attributed to this block.
    pub sites: usize,
    /// Operations whose result was unaffected.
    pub masked: u64,
    /// Corrupted operations flagged by the checker.
    pub detected: u64,
    /// Corrupted operations that no check caught.
    pub silent: u64,
}

impl BlockStats {
    fn record(&mut self, outcome: FaultOutcome) {
        match outcome {
            FaultOutcome::Masked => self.masked += 1,
            FaultOutcome::Detected => self.detected += 1,
            FaultOutcome::Silent => self.silent += 1,
        }
    }

    /// Total classified operations.
    pub fn ops(&self) -> u64 {
        self.masked + self.detected + self.silent
    }

    /// Detected fraction of corrupting operations (1.0 when nothing
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

/// Aggregated campaign results, keyed by block name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Outcome counters per top-level block.
    pub per_block: BTreeMap<String, BlockStats>,
}

impl CampaignStats {
    /// Records one classified operation under `block`.
    pub fn record(&mut self, block: &str, outcome: FaultOutcome) {
        self.per_block
            .entry(block.to_string())
            .or_default()
            .record(outcome);
    }

    /// Notes one more fault site under `block`.
    pub fn add_site(&mut self, block: &str) {
        self.per_block.entry(block.to_string()).or_default().sites += 1;
    }

    /// Merges another campaign's counters into this one (per-block field
    /// sums). This is the shard-merge primitive for parallel campaigns:
    /// merging shard stats in any order yields the same result as one
    /// sequential aggregation over the union of their sites.
    pub fn merge(&mut self, other: &CampaignStats) {
        for (name, b) in &other.per_block {
            let e = self.per_block.entry(name.clone()).or_default();
            e.sites += b.sites;
            e.masked += b.masked;
            e.detected += b.detected;
            e.silent += b.silent;
        }
    }

    /// Summed counters over all blocks.
    pub fn totals(&self) -> BlockStats {
        let mut t = BlockStats::default();
        for b in self.per_block.values() {
            t.sites += b.sites;
            t.masked += b.masked;
            t.detected += b.detected;
            t.silent += b.silent;
        }
        t
    }

    /// Renders the per-block coverage table (plus a TOTAL row).
    pub fn table(&self) -> Table {
        let mut t = Table::new(&[
            "block", "sites", "ops", "masked", "detected", "silent", "det.rate",
        ]);
        let mut row = |name: &str, b: &BlockStats| {
            t.row_owned(vec![
                name.to_string(),
                b.sites.to_string(),
                b.ops().to_string(),
                b.masked.to_string(),
                b.detected.to_string(),
                b.silent.to_string(),
                format!("{:.3}", b.detection_rate()),
            ]);
        };
        for (name, b) in &self.per_block {
            row(name, b);
        }
        let totals = self.totals();
        row("TOTAL", &totals);
        t
    }
}

/// Drives a fault-injection campaign over a list of sites.
///
/// The runner owns the mechanics — inject, classify, repair, verify the
/// repair — while the `classify` closure owns the semantics: it drives
/// operand vectors through the faulted simulator and returns one
/// [`FaultOutcome`] per vector.
pub struct CampaignRunner<'a> {
    netlist: &'a Netlist,
    sites: Vec<FaultSite>,
}

impl<'a> CampaignRunner<'a> {
    /// Creates a runner over the given sites.
    pub fn new(netlist: &'a Netlist, sites: Vec<FaultSite>) -> Self {
        CampaignRunner { netlist, sites }
    }

    /// The sites this runner will inject.
    pub fn sites(&self) -> &[FaultSite] {
        &self.sites
    }

    /// Runs the campaign: for each site, injects the fault into a shared
    /// simulator, lets `classify` drive vectors and classify the outcomes,
    /// then clears the fault and re-settles so the next site starts from a
    /// healthy netlist.
    pub fn run<F>(&self, mut classify: F) -> CampaignStats
    where
        F: FnMut(&mut Simulator<'_>, &FaultSite) -> Vec<FaultOutcome>,
    {
        let mut stats = CampaignStats::default();
        let mut sim = Simulator::new(self.netlist);
        for site in &self.sites {
            stats.add_site(&site.block);
            site.kind.inject(&mut sim, site.net);
            sim.settle();
            for outcome in classify(&mut sim, site) {
                stats.record(&site.block, outcome);
            }
            sim.clear_faults();
            sim.settle();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::TechLibrary;

    /// A 4-bit ripple-carry adder with blocks, as a campaign target.
    fn adder_netlist() -> (Netlist, Vec<NetId>, Vec<NetId>, Vec<NetId>) {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let mut carry = n.zero();
        let mut sum = Vec::new();
        for i in 0..4 {
            n.begin_block(if i < 2 { "LO" } else { "HI" });
            let (s, co) = n.full_adder(a[i], b[i], carry);
            sum.push(s);
            carry = co;
            n.end_block();
        }
        sum.push(carry);
        n.output_bus("sum", &sum);
        (n, a, b, sum)
    }

    #[test]
    fn enumeration_covers_blocks_and_polarities() {
        let (n, ..) = adder_netlist();
        let sites = enumerate_stuck_sites(&n);
        assert_eq!(sites.len(), 2 * n.cell_count());
        assert!(sites.iter().any(|s| s.block == "LO"));
        assert!(sites.iter().any(|s| s.block == "HI"));
        assert!(sites.iter().any(|s| s.kind == FaultKind::StuckAt0));
        assert!(sites.iter().any(|s| s.kind == FaultKind::StuckAt1));
    }

    #[test]
    fn sampling_is_deterministic() {
        let (n, ..) = adder_netlist();
        let all = enumerate_stuck_sites(&n);
        let s1 = sample_sites(all.clone(), 10, 42);
        let s2 = sample_sites(all.clone(), 10, 42);
        let s3 = sample_sites(all, 10, 43);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3, "different seeds pick different sites");
        assert_eq!(s1.len(), 10);
    }

    #[test]
    fn index_sampling_equals_sampling_the_enumeration() {
        let (n, ..) = adder_netlist();
        let all = enumerate_stuck_sites(&n);
        let pop = all.len();
        for count in [0, 1, 10, pop - 1, pop, pop + 5, 10_000] {
            for seed in [0, 42, 0x5EED, u64::MAX] {
                assert_eq!(
                    sample_stuck_sites(&n, count, seed),
                    sample_sites(all.clone(), count, seed),
                    "count {count}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn campaign_classifies_adder_faults() {
        let (n, a, b, sum) = adder_netlist();
        let sites = enumerate_stuck_sites(&n);
        let runner = CampaignRunner::new(&n, sites);
        // Reference model: plain addition; "checker": none (every
        // corruption is silent). The campaign must label every outcome and
        // find at least one corrupting site per block.
        let vectors = [(3u128, 5u128), (15, 15), (0, 0), (9, 6)];
        let stats = runner.run(|sim, _site| {
            vectors
                .iter()
                .map(|&(x, y)| {
                    sim.set_bus(&a, x);
                    sim.set_bus(&b, y);
                    sim.settle();
                    if sim.read_bus(&sum) == x + y {
                        FaultOutcome::Masked
                    } else {
                        FaultOutcome::Silent
                    }
                })
                .collect()
        });
        let totals = stats.totals();
        assert_eq!(totals.sites, 2 * n.cell_count());
        assert_eq!(totals.ops(), totals.sites as u64 * vectors.len() as u64);
        for blk in ["LO", "HI"] {
            let b = &stats.per_block[blk];
            assert!(b.silent > 0, "{blk}: some corruption observed");
            assert!(b.masked > 0, "{blk}: some masking observed");
        }
        // With no checker the detection rate is zero everywhere corrupted.
        assert_eq!(totals.detected, 0);
    }

    #[test]
    fn campaign_leaves_simulator_healthy() {
        let (n, a, b, sum) = adder_netlist();
        let sites = sample_sites(enumerate_stuck_sites(&n), 16, 7);
        let runner = CampaignRunner::new(&n, sites);
        runner.run(|_, _| vec![]);
        // A fresh run over the same netlist still computes correctly.
        let mut sim = Simulator::new(&n);
        sim.set_bus(&a, 7);
        sim.set_bus(&b, 8);
        sim.settle();
        assert_eq!(sim.read_bus(&sum), 15);
    }
}
