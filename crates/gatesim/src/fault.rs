//! Stuck-at fault sites and the counters a fault campaign fills.
//!
//! A shared multi-format datapath is a shared failure domain: one stuck-at
//! or particle-induced upset corrupts every format that flows through it.
//! This module names the places a defect can sit on the gate-level netlist
//! and holds the tallies of what it did:
//!
//! - [`enumerate_stuck_sites`] — every cell-output net of the netlist,
//!   both polarities, tagged with the top-level block (`PPGEN`, `TREE`,
//!   `CPA`, …) of the driving cell; [`sample_stuck_sites`] draws a seeded
//!   subset of it without building the rest.
//! - [`CampaignStats`] — per-block [masked / detected / silent](FaultOutcome)
//!   counts.
//!
//! Faults are *overlays* on a simulator, so a campaign over thousands of
//! sites reuses a single netlist: [`Simulator::inject_stuck_at`] (and
//! [`Simulator::inject_transient`] for an upset) on the event-driven
//! engine, [`LaneSim::inject_stuck_at`] with one lane per site on the
//! compiled one. The campaign itself — site loop, operand streams and
//! classification — lives in `mfm_evalkit::faultcov`, which drives
//! multiplier operands and consults the `mfmult::selfcheck` checker; this
//! crate stays ignorant of operand formats.
//!
//! [`Simulator::inject_stuck_at`]: crate::sim::Simulator::inject_stuck_at
//! [`Simulator::inject_transient`]: crate::sim::Simulator::inject_transient
//! [`LaneSim::inject_stuck_at`]: crate::compiled::LaneSim::inject_stuck_at

use crate::netlist::{Cell, Driver, NetId, Netlist};
use crate::report::Table;
use mfm_prng::Rng;
use std::collections::BTreeMap;

/// One stuck-at fault location: a net and the value it is stuck at.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSite {
    /// The faulted net.
    pub net: NetId,
    /// The value the net is stuck at (`false` for stuck-at-0).
    pub value: bool,
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
        value: i % 2 == 1,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::TechLibrary;

    /// A 4-bit ripple-carry adder with blocks, as a campaign target.
    fn adder_netlist() -> Netlist {
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
        n
    }

    #[test]
    fn enumeration_covers_blocks_and_polarities() {
        let n = adder_netlist();
        let sites = enumerate_stuck_sites(&n);
        assert_eq!(sites.len(), 2 * n.cell_count());
        assert!(sites.iter().any(|s| s.block == "LO"));
        assert!(sites.iter().any(|s| s.block == "HI"));
        assert!(sites.iter().any(|s| !s.value));
        assert!(sites.iter().any(|s| s.value));
    }

    #[test]
    fn sampling_is_deterministic() {
        let n = adder_netlist();
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
        let n = adder_netlist();
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
}
