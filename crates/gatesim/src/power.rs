//! Activity-based power estimation.
//!
//! Dynamic energy is `Σ_cells toggles(output) × E_sw(kind)`; for sequential
//! netlists every DFF additionally draws its internal clock energy each
//! cycle. Leakage is proportional to area. Power at a frequency `f` is
//! `E_per_op × f + P_leak`, mirroring the paper's methodology of estimating
//! at 100 MHz and scaling linearly ("to have an easily scalable value to
//! any frequency").

use crate::netlist::{BlockId, Netlist};
use crate::sim::Simulator;
use crate::tech::CellKind;
use mfm_telemetry::Gauge;
use std::collections::HashMap;

/// Energy and power figures derived from one activity measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    /// Number of operations (input vectors or clock cycles) measured.
    pub ops: u64,
    /// Average switched energy per operation, in picojoules (data activity).
    pub dynamic_pj_per_op: f64,
    /// Average clock-tree/register energy per cycle, in picojoules.
    pub clock_pj_per_op: f64,
    /// Leakage power in milliwatts (frequency independent).
    pub leakage_mw: f64,
    /// Per-top-level-block dynamic energy, `(name, pJ/op)`, sorted by name.
    pub per_block_pj: Vec<(String, f64)>,
    /// Per-cell-kind dynamic energy, pJ/op.
    pub per_kind_pj: Vec<(CellKind, f64)>,
    /// Total committed transitions per op (a glitching metric).
    pub transitions_per_op: f64,
}

impl PowerBreakdown {
    /// Total power in milliwatts at the given clock frequency.
    ///
    /// One operation is assumed per clock cycle, as in the paper.
    pub fn total_mw_at(&self, freq_mhz: f64) -> f64 {
        // pJ/op × ops/s = pJ × 1e6 × MHz / s = µW × MHz → mW needs /1e3.
        (self.dynamic_pj_per_op + self.clock_pj_per_op) * freq_mhz * 1e-3 + self.leakage_mw
    }

    /// Dynamic-only power in milliwatts at the given frequency.
    pub fn dynamic_mw_at(&self, freq_mhz: f64) -> f64 {
        (self.dynamic_pj_per_op + self.clock_pj_per_op) * freq_mhz * 1e-3
    }

    /// Energy per operation in picojoules (dynamic + clock).
    pub fn energy_pj_per_op(&self) -> f64 {
        self.dynamic_pj_per_op + self.clock_pj_per_op
    }
}

/// Computes power figures from a simulator's accumulated activity.
#[derive(Debug)]
pub struct PowerEstimator;

impl PowerEstimator {
    /// Derives a [`PowerBreakdown`] from the activity recorded in `sim`.
    ///
    /// `ops` is the number of operations the activity corresponds to: the
    /// number of input vectors for a combinational run, or the number of
    /// clock cycles for a sequential run (pass `sim.cycles()`).
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0`.
    pub fn from_activity(netlist: &Netlist, sim: &Simulator<'_>, ops: u64) -> PowerBreakdown {
        Self::from_toggles(
            netlist,
            sim.toggles(),
            sim.total_events(),
            sim.cycles(),
            ops,
        )
    }

    /// Derives a [`PowerBreakdown`] from raw activity counters, without a
    /// live simulator. `toggles` is a per-net committed-transition count
    /// (as returned by [`Simulator::toggles`]), `events` the total
    /// committed transitions and `cycles` the clock-cycle count — the
    /// merged sums of several independent runs are valid inputs, which is
    /// what thread-sharded Monte-Carlo campaigns feed in.
    ///
    /// This is [`PowerEstimator::from_toggles_calibrated`] with no
    /// factors: every block and the transition count scale by 1.0, which
    /// is exact.
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0` or `toggles` is shorter than the net array.
    pub fn from_toggles(
        netlist: &Netlist,
        toggles: &[u64],
        events: u64,
        cycles: u64,
        ops: u64,
    ) -> PowerBreakdown {
        Self::from_toggles_calibrated(netlist, toggles, events, cycles, ops, &[], 1.0, 1.0)
    }

    /// [`PowerEstimator::from_toggles`] with per-block glitch-inflation
    /// factors applied — the estimator half of the compiled power path.
    ///
    /// `toggles` here are **zero-delay** counts (a
    /// [`LaneSim`](crate::compiled::LaneSim) activity sweep, or a
    /// zero-delay [`Simulator`] run); each cell's
    /// switched energy is multiplied by the calibration factor of its
    /// top-level block (`block_factors`, falling back to
    /// `default_factor` for unlisted blocks; of two entries for one
    /// block the last wins), recovering the glitch-inclusive energy the
    /// event-driven reference would report. `event_factor` scales the
    /// transition count the same way. Clock energy is exact under zero
    /// delay (one edge per cycle) and is **not** inflated.
    ///
    /// Each block maps once per call to a dense slot of its top-level
    /// block, whose factor is resolved once; the cell loop then adds
    /// into arrays, in cell order. A block or cell kind is reported only
    /// if some cell in it switched energy (before its factor).
    ///
    /// Factors come from `mfm_evalkit::calibrate`; this function lives
    /// here so the estimator stays dependency-free.
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0` or `toggles` is shorter than the net array.
    #[allow(clippy::too_many_arguments)]
    pub fn from_toggles_calibrated(
        netlist: &Netlist,
        toggles: &[u64],
        events: u64,
        cycles: u64,
        ops: u64,
        block_factors: &[(String, f64)],
        default_factor: f64,
        event_factor: f64,
    ) -> PowerBreakdown {
        assert!(ops > 0, "power estimation needs at least one operation");
        assert!(
            toggles.len() >= netlist.net_count(),
            "toggle counters must cover every net"
        );
        let tech = netlist.tech();

        // Dense slots: one per top-level block name, in order of first
        // appearance, and each block's slot.
        let mut slot_names: Vec<&str> = Vec::new();
        let mut slot_by_name: HashMap<&str, usize> = HashMap::new();
        let slot_of_block: Vec<usize> = (0..netlist.block_count())
            .map(|b| {
                let name = netlist.top_level_block_name(BlockId(b as u16));
                *slot_by_name.entry(name).or_insert_with(|| {
                    slot_names.push(name);
                    slot_names.len() - 1
                })
            })
            .collect();
        let mut factor = vec![default_factor; slot_names.len()];
        for (name, f) in block_factors {
            if let Some(&slot) = slot_by_name.get(name.as_str()) {
                factor[slot] = *f;
            }
        }

        // A bucket exists once a cell with energy reaches it.
        let mut total_fj = 0.0f64;
        let mut block_fj: Vec<Option<f64>> = vec![None; slot_names.len()];
        let mut kind_fj: [Option<f64>; CellKind::ALL.len()] = [None; CellKind::ALL.len()];
        for cell in netlist.cells() {
            let p = tech.params(cell.kind);
            // Self (internal + output) energy per output transition.
            let mut e = toggles[cell.output.index()] as f64 * p.energy_fj;
            // Input-pin energy: every transition of a driving net charges
            // this cell's gate capacitance — the fanout-load component of
            // dynamic power.
            for &inp in &cell.inputs[..cell.kind.arity()] {
                e += toggles[inp.index()] as f64 * p.input_fj;
            }
            if e == 0.0 {
                continue;
            }
            let slot = slot_of_block[cell.block.index()];
            e *= factor[slot];
            total_fj += e;
            *block_fj[slot].get_or_insert(0.0) += e;
            *kind_fj[cell.kind.index()].get_or_insert(0.0) += e;
        }

        let clock_fj = cycles as f64 * netlist.dff_count() as f64 * tech.dff_clock_energy_fj;

        let mut per_block_pj: Vec<(String, f64)> = slot_names
            .iter()
            .zip(&block_fj)
            .filter_map(|(name, fj)| fj.map(|fj| ((*name).to_owned(), fj / 1000.0 / ops as f64)))
            .collect();
        per_block_pj.sort_by(|a, b| a.0.cmp(&b.0));
        let mut per_kind_pj: Vec<(CellKind, f64)> = CellKind::ALL
            .iter()
            .filter_map(|&k| kind_fj[k.index()].map(|fj| (k, fj / 1000.0 / ops as f64)))
            .collect();
        per_kind_pj.sort_by_key(|(k, _)| format!("{k:?}"));

        PowerBreakdown {
            ops,
            dynamic_pj_per_op: total_fj / 1000.0 / ops as f64,
            clock_pj_per_op: clock_fj / 1000.0 / ops as f64,
            leakage_mw: netlist.area_um2() * tech.leakage_nw_per_um2 * 1e-6,
            per_block_pj,
            per_kind_pj,
            transitions_per_op: events as f64 * event_factor / ops as f64,
        }
    }
}

/// One window of the live power trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Operation count at the end of this window (caller's op space).
    pub ops_end: u64,
    /// Operations inside the window.
    pub window_ops: u64,
    /// Average energy per operation inside the window, in picojoules
    /// (dynamic switching + clock).
    pub pj_per_op: f64,
}

/// A sliding-window pJ/op power trace over a running simulation.
///
/// [`PowerEstimator::from_activity`] reports only the final average;
/// this tracer lets activity be observed *over time*: call
/// [`LivePowerTrace::sample`] at window boundaries and each call yields
/// the energy per operation of just that window, computed from the
/// toggle deltas since the previous call. Per-net energy weights
/// (cell self energy on the output net plus fanout pin energy on every
/// driven input) are precomputed once, so a sample costs one pass over
/// the net array — pay it at window granularity, not per vector.
///
/// The baseline is the simulator's activity state at construction time:
/// build the tracer after warm-up (or after
/// [`Simulator::reset_activity`]).
///
/// The tracer is source-agnostic: it consumes raw counters
/// ([`LivePowerTrace::sample_counts`]), so the same instance can be fed
/// from an event-driven [`Simulator`], from a
/// [`LaneSim`](crate::compiled::LaneSim) activity sweep (its `toggles()`
/// and `cycles()`) or from merged shard
/// counters — no event-driven simulation is required to keep a live
/// power gauge next to a compiled service core. Compiled (zero-delay)
/// toggles undercount glitch energy; chain
/// [`LivePowerTrace::with_scale`] with a calibrated inflation factor to
/// report calibrated pJ/op.
///
/// The tracer keeps the last sample and the running sums behind
/// [`LivePowerTrace::mean_pj_per_op`], not the samples themselves: its
/// heap is fixed at construction however long it runs. A caller that
/// wants the series collects what [`LivePowerTrace::sample_counts`]
/// returns.
#[derive(Debug)]
pub struct LivePowerTrace {
    /// Energy charged per toggle of each net, fJ.
    weights_fj: Vec<f64>,
    /// Clock energy per cycle (all DFFs), fJ.
    clock_fj_per_cycle: f64,
    /// Multiplier applied to each window's switched energy (clock
    /// energy included — at one op per cycle the paper's accounting —
    /// scale only makes sense ≥ 1 from glitch inflation).
    scale: f64,
    last_toggles: Vec<u64>,
    last_cycles: u64,
    last_ops: u64,
    /// The most recent sample.
    last_sample: Option<PowerSample>,
    /// Operations over every sample so far.
    sampled_ops: u64,
    /// `Σ pj_per_op × window_ops` over every sample so far, added in
    /// sample order from -0.0 (the start of an `f64` iterator sum).
    sampled_pj: f64,
    gauge: Option<Gauge>,
}

impl LivePowerTrace {
    /// Builds a tracer baselined on `sim`'s current activity counters.
    pub fn new(netlist: &Netlist, sim: &Simulator<'_>) -> Self {
        Self::from_counts(netlist, sim.toggles(), sim.cycles())
    }

    /// Builds a tracer baselined on raw activity counters (any toggle
    /// source: an event-driven simulator, a compiled activity sweep, or
    /// merged shard counters).
    pub fn from_counts(netlist: &Netlist, toggles: &[u64], cycles: u64) -> Self {
        let tech = netlist.tech();
        let mut weights_fj = vec![0.0f64; netlist.net_count()];
        for cell in netlist.cells() {
            let p = tech.params(cell.kind);
            weights_fj[cell.output.index()] += p.energy_fj;
            for &inp in &cell.inputs[..cell.kind.arity()] {
                weights_fj[inp.index()] += p.input_fj;
            }
        }
        LivePowerTrace {
            weights_fj,
            clock_fj_per_cycle: netlist.dff_count() as f64 * tech.dff_clock_energy_fj,
            scale: 1.0,
            last_toggles: toggles.to_vec(),
            last_cycles: cycles,
            last_ops: 0,
            last_sample: None,
            sampled_ops: 0,
            sampled_pj: -0.0,
            gauge: None,
        }
    }

    /// Mirrors each window's pJ/op into `gauge` (e.g. a registry's
    /// `power.live_pj_per_op`).
    pub fn with_gauge(mut self, gauge: Gauge) -> Self {
        self.gauge = Some(gauge);
        self
    }

    /// Multiplies every window's energy by `scale` — the live-gauge
    /// analogue of the per-block glitch-inflation calibration (use a
    /// netlist-level factor from `mfm_evalkit::calibrate` when sampling
    /// zero-delay toggle sources).
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Closes the current window at `ops_total` operations (the
    /// caller's cumulative count) and returns its sample, or `None`
    /// when no operation completed since the last call.
    ///
    /// If the simulator's activity was reset since the last sample, the
    /// window is unmeasurable: the tracer rebases and returns `None`.
    pub fn sample(&mut self, sim: &Simulator<'_>, ops_total: u64) -> Option<PowerSample> {
        let (toggles, cycles) = (sim.toggles(), sim.cycles());
        self.sample_counts(toggles, cycles, ops_total)
    }

    /// Closes the current window from raw cumulative counters. `toggles`
    /// and `cycles` must be monotone between calls (a decrease is
    /// treated as an activity reset: the tracer rebases and returns
    /// `None`).
    pub fn sample_counts(
        &mut self,
        toggles: &[u64],
        cycles: u64,
        ops_total: u64,
    ) -> Option<PowerSample> {
        let window_ops = ops_total.saturating_sub(self.last_ops);
        if cycles < self.last_cycles {
            return self.rebase(toggles, cycles, ops_total);
        }
        if window_ops == 0 {
            // The window stays open unless a counter went down.
            if toggles
                .iter()
                .zip(&self.last_toggles)
                .any(|(&now, &last)| now < last)
            {
                return self.rebase(toggles, cycles, ops_total);
            }
            return None;
        }
        // One pass: accumulate every net's energy and watch for a counter
        // that went down. A net that did not toggle adds exactly 0.0
        // (weights are finite and `fj` starts at +0.0 or above), so the
        // sum is bit-identical to one that skips it, with no branch.
        let mut fj = (cycles - self.last_cycles) as f64 * self.clock_fj_per_cycle;
        let mut went_down = false;
        for ((&now, last), &weight) in toggles
            .iter()
            .zip(self.last_toggles.iter_mut())
            .zip(&self.weights_fj)
        {
            went_down |= now < *last;
            fj += now.wrapping_sub(*last) as f64 * weight;
            *last = now;
        }
        if went_down {
            return self.rebase(toggles, cycles, ops_total);
        }
        fj *= self.scale;
        self.last_cycles = cycles;
        self.last_ops = ops_total;
        let s = PowerSample {
            ops_end: ops_total,
            window_ops,
            pj_per_op: fj / 1000.0 / window_ops as f64,
        };
        self.record(s)
    }

    /// Makes `s` the latest sample: mirrors it to the gauge and adds it
    /// to the running sums.
    fn record(&mut self, s: PowerSample) -> Option<PowerSample> {
        if let Some(g) = &self.gauge {
            g.set(s.pj_per_op);
        }
        self.sampled_ops += s.window_ops;
        self.sampled_pj += s.pj_per_op * s.window_ops as f64;
        self.last_sample = Some(s);
        Some(s)
    }

    /// Ends a window that an activity reset made unmeasurable: the
    /// baseline moves to the given counters, and there is no sample.
    fn rebase(&mut self, toggles: &[u64], cycles: u64, ops_total: u64) -> Option<PowerSample> {
        self.last_toggles.copy_from_slice(toggles);
        self.last_cycles = cycles;
        self.last_ops = ops_total;
        None
    }

    /// The most recent sample, if any.
    pub fn last_sample(&self) -> Option<PowerSample> {
        self.last_sample
    }

    /// The most recent window's pJ/op, if any.
    pub fn latest_pj_per_op(&self) -> Option<f64> {
        self.last_sample.map(|s| s.pj_per_op)
    }

    /// Ops-weighted mean pJ/op over all samples (0.0 when empty).
    pub fn mean_pj_per_op(&self) -> f64 {
        if self.sampled_ops == 0 {
            return 0.0;
        }
        self.sampled_pj / self.sampled_ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::tech::TechLibrary;
    use mfm_prng::Rng;

    impl PowerEstimator {
        /// The `HashMap` body [`PowerEstimator::from_toggles_calibrated`]
        /// must match bit for bit: per cell, the top-level block name,
        /// its factor and both buckets are looked up by hash.
        #[allow(clippy::too_many_arguments)]
        fn from_toggles_calibrated_reference(
            netlist: &Netlist,
            toggles: &[u64],
            events: u64,
            cycles: u64,
            ops: u64,
            block_factors: &[(String, f64)],
            default_factor: f64,
            event_factor: f64,
        ) -> PowerBreakdown {
            let tech = netlist.tech();
            let factors: HashMap<&str, f64> = block_factors
                .iter()
                .map(|(name, f)| (name.as_str(), *f))
                .collect();
            let mut total_fj = 0.0f64;
            let mut per_block: HashMap<&str, f64> = HashMap::new();
            let mut per_kind: HashMap<CellKind, f64> = HashMap::new();
            for cell in netlist.cells() {
                let t = toggles[cell.output.index()] as f64;
                let mut e = t * tech.params(cell.kind).energy_fj;
                let in_fj = tech.params(cell.kind).input_fj;
                for &inp in &cell.inputs[..cell.kind.arity()] {
                    e += toggles[inp.index()] as f64 * in_fj;
                }
                if e == 0.0 {
                    continue;
                }
                let block = netlist.top_level_block_name(cell.block);
                e *= factors.get(block).copied().unwrap_or(default_factor);
                total_fj += e;
                *per_block.entry(block).or_insert(0.0) += e;
                *per_kind.entry(cell.kind).or_insert(0.0) += e;
            }
            let clock_fj = cycles as f64 * netlist.dff_count() as f64 * tech.dff_clock_energy_fj;
            let mut per_block_pj: Vec<(String, f64)> = per_block
                .into_iter()
                .map(|(k, fj)| (k.to_owned(), fj / 1000.0 / ops as f64))
                .collect();
            per_block_pj.sort_by(|a, b| a.0.cmp(&b.0));
            let mut per_kind_pj: Vec<(CellKind, f64)> = per_kind
                .into_iter()
                .map(|(k, fj)| (k, fj / 1000.0 / ops as f64))
                .collect();
            per_kind_pj.sort_by_key(|(k, _)| format!("{k:?}"));
            PowerBreakdown {
                ops,
                dynamic_pj_per_op: total_fj / 1000.0 / ops as f64,
                clock_pj_per_op: clock_fj / 1000.0 / ops as f64,
                leakage_mw: netlist.area_um2() * tech.leakage_nw_per_um2 * 1e-6,
                per_block_pj,
                per_kind_pj,
                transitions_per_op: events as f64 * event_factor / ops as f64,
            }
        }
    }

    /// Every field of a breakdown with its floats as bits, both
    /// breakdown vectors in their order.
    type BreakdownBits = (u64, [u64; 4], Vec<(String, u64)>, Vec<(CellKind, u64)>, u64);

    fn breakdown_bits(p: &PowerBreakdown) -> BreakdownBits {
        (
            p.ops,
            [
                p.dynamic_pj_per_op.to_bits(),
                p.clock_pj_per_op.to_bits(),
                p.leakage_mw.to_bits(),
                p.transitions_per_op.to_bits(),
            ],
            p.per_block_pj
                .iter()
                .map(|(name, e)| (name.clone(), e.to_bits()))
                .collect(),
            p.per_kind_pj
                .iter()
                .map(|&(k, e)| (k, e.to_bits()))
                .collect(),
            p.energy_pj_per_op().to_bits(),
        )
    }

    /// Block names the random netlists and factor lists draw from:
    /// `TOP` shares the root's bucket, `A/x` opened at the top level
    /// rolls up into `A`, and nesting makes paths such as `A/B`.
    const BLOCK_NAMES: [&str; 5] = ["A", "B", "TOP", "A/x", "C"];

    /// A random netlist whose cells sit in randomly opened and closed,
    /// possibly nested or empty, blocks.
    fn random_blocked_netlist(rng: &mut Rng, n_cells: usize) -> Netlist {
        let energy = [1.0, 1.0, 0.5, 0.0][rng.range_u64(0, 4) as usize];
        let mut n = Netlist::new(TechLibrary::cmos45lp().with_energy_scale(energy));
        let mut nets = vec![n.zero(), n.one()];
        nets.extend(n.input_bus("in", 6));
        let mut depth = 0;
        for _ in 0..n_cells {
            match rng.range_u64(0, 8) {
                0 => {
                    n.begin_block(BLOCK_NAMES[rng.range_u64(0, 5) as usize]);
                    depth += 1;
                }
                1 if depth > 0 => {
                    n.end_block();
                    depth -= 1;
                }
                _ => {}
            }
            let kind = CellKind::ALL[rng.range_u64(0, CellKind::ALL.len() as u64) as usize];
            let ins: Vec<_> = (0..kind.arity())
                .map(|_| nets[rng.range_u64(0, nets.len() as u64) as usize])
                .collect();
            nets.push(n.cell(kind, &ins));
        }
        for _ in 0..depth {
            n.end_block();
        }
        n
    }

    #[test]
    fn dense_slot_estimator_matches_the_hash_map_reference() {
        let mut rng = Rng::new(0xE5_71A7_0125);
        let cases = if cfg!(debug_assertions) { 60 } else { 600 };
        // Calls where a block that holds cells got no bucket, where a
        // factor list had a duplicate, and where it named no block.
        let (mut silent_blocks, mut duplicates, mut unknown) = (0, 0, 0);
        for case in 0..cases {
            let n_cells = rng.range_u64(1, 150) as usize;
            let n = random_blocked_netlist(&mut rng, n_cells);
            let density = [0.05, 0.2, 0.6][rng.range_u64(0, 3) as usize];
            let toggles: Vec<u64> = (0..n.net_count())
                .map(|_| {
                    if rng.next_bool(density) {
                        rng.range_u64(1, 1000)
                    } else {
                        0
                    }
                })
                .collect();
            let (events, cycles) = (rng.range_u64(0, 1 << 20), rng.range_u64(0, 64));
            let ops = rng.range_u64(1, 300);
            let at = format!("case {case}");

            let plain = PowerEstimator::from_toggles(&n, &toggles, events, cycles, ops);
            let want = PowerEstimator::from_toggles_calibrated_reference(
                &n,
                &toggles,
                events,
                cycles,
                ops,
                &[],
                1.0,
                1.0,
            );
            assert_eq!(breakdown_bits(&plain), breakdown_bits(&want), "{at}, plain");

            let mut factors: Vec<(String, f64)> = (0..rng.range_u64(0, 7))
                .map(|_| {
                    let name = ["A", "B", "TOP", "C", "A/x", "ZZZ"][rng.range_u64(0, 6) as usize];
                    let f = [0.0, 0.5, 1.0, 1.37, 2.0, 3.1][rng.range_u64(0, 6) as usize];
                    (name.to_owned(), f)
                })
                .collect();
            if !factors.is_empty() && rng.next_bool(0.3) {
                let again = factors[rng.range_u64(0, factors.len() as u64) as usize]
                    .0
                    .clone();
                factors.push((again, 1.75));
            }
            let names: Vec<&str> = factors.iter().map(|(name, _)| name.as_str()).collect();
            duplicates += usize::from((1..names.len()).any(|i| names[..i].contains(&names[i])));
            unknown += usize::from(names.iter().any(|&f| {
                (0..n.block_count()).all(|b| n.top_level_block_name(BlockId(b as u16)) != f)
            }));
            let default_factor = [1.0, 1.21, 0.0][rng.range_u64(0, 3) as usize];
            let event_factor = [1.0, 1.13][rng.range_u64(0, 2) as usize];
            let got = PowerEstimator::from_toggles_calibrated(
                &n,
                &toggles,
                events,
                cycles,
                ops,
                &factors,
                default_factor,
                event_factor,
            );
            let want = PowerEstimator::from_toggles_calibrated_reference(
                &n,
                &toggles,
                events,
                cycles,
                ops,
                &factors,
                default_factor,
                event_factor,
            );
            assert_eq!(
                breakdown_bits(&got),
                breakdown_bits(&want),
                "{at}, calibrated"
            );
            silent_blocks += n
                .cells()
                .iter()
                .map(|c| n.top_level_block_name(c.block))
                .filter(|b| got.per_block_pj.iter().all(|(name, _)| name != b))
                .count()
                .min(1);
        }
        assert!(
            silent_blocks > 0 && duplicates > 0 && unknown > 0,
            "every factor and bucket shape ran: {silent_blocks} {duplicates} {unknown}"
        );
    }

    impl LivePowerTrace {
        /// The two-pass [`LivePowerTrace::sample_counts`] the one-pass
        /// body must match bit for bit: a scan for a counter that went
        /// down, then a sum over the nets that toggled only.
        fn sample_counts_reference(
            &mut self,
            toggles: &[u64],
            cycles: u64,
            ops_total: u64,
        ) -> Option<PowerSample> {
            let window_ops = ops_total.saturating_sub(self.last_ops);
            let reset_detected = cycles < self.last_cycles
                || toggles
                    .iter()
                    .zip(&self.last_toggles)
                    .any(|(&now, &last)| now < last);
            if reset_detected {
                self.last_toggles.copy_from_slice(toggles);
                self.last_cycles = cycles;
                self.last_ops = ops_total;
                return None;
            }
            if window_ops == 0 {
                return None;
            }
            let mut fj = (cycles - self.last_cycles) as f64 * self.clock_fj_per_cycle;
            for (i, (&now, last)) in toggles.iter().zip(self.last_toggles.iter_mut()).enumerate() {
                let delta = now - *last;
                if delta != 0 {
                    fj += delta as f64 * self.weights_fj[i];
                    *last = now;
                }
            }
            fj *= self.scale;
            self.last_cycles = cycles;
            self.last_ops = ops_total;
            self.record(PowerSample {
                ops_end: ops_total,
                window_ops,
                pj_per_op: fj / 1000.0 / window_ops as f64,
            })
        }
    }

    /// A sample's fields with its pJ/op as bits, so `-0.0`, `0.0` and
    /// NaN payloads compare exactly.
    fn bits(s: &PowerSample) -> (u64, u64, u64) {
        (s.ops_end, s.window_ops, s.pj_per_op.to_bits())
    }

    #[test]
    fn one_pass_sample_counts_matches_the_two_pass_reference() {
        let mut rng = Rng::new(0x5A4D_91E5);
        let streams = if cfg!(debug_assertions) { 40 } else { 400 };
        let mut kinds = [0usize; 6];
        for _ in 0..streams {
            let n_cells = rng.range_u64(5, 120) as usize;
            let (n, _) = crate::sim::reference::random_netlist(&mut rng, 6, n_cells);
            let nets = n.net_count();
            let mut toggles: Vec<u64> = (0..nets).map(|_| rng.range_u64(0, 4)).collect();
            let (mut cycles, mut ops) = (rng.range_u64(0, 3), 0u64);
            let scale = [1.0, 1.37, 2.0][rng.range_u64(0, 3) as usize];
            let mut fast = LivePowerTrace::from_counts(&n, &toggles, cycles).with_scale(scale);
            let mut slow = LivePowerTrace::from_counts(&n, &toggles, cycles).with_scale(scale);
            let mut taken = Vec::new();
            for step in 0..60 {
                let kind = rng.range_u64(0, 6) as usize;
                kinds[kind] += 1;
                match kind {
                    // A window of sparse toggles (most nets silent).
                    0 | 1 => {
                        for t in toggles.iter_mut() {
                            if rng.next_bool(0.2) {
                                *t += rng.range_u64(1, 50);
                            }
                        }
                        cycles += rng.range_u64(0, 4);
                        ops += rng.range_u64(0, 3);
                    }
                    // A zero-op window: counters move, ops do not.
                    2 => {
                        let i = rng.range_u64(0, nets as u64) as usize;
                        toggles[i] += rng.range_u64(0, 9);
                        cycles += rng.range_u64(0, 2);
                    }
                    // All-zero deltas over a window with ops.
                    3 => ops += rng.range_u64(1, 4),
                    // One per-net counter goes down.
                    4 => {
                        let i = rng.range_u64(0, nets as u64) as usize;
                        toggles[i] = toggles[i].saturating_sub(rng.range_u64(1, 5));
                        ops += rng.range_u64(0, 3);
                    }
                    // The cycle count goes down (a reset of the source).
                    _ => {
                        cycles = cycles.saturating_sub(rng.range_u64(1, 4));
                        if rng.next_bool(0.5) {
                            toggles.iter_mut().for_each(|t| *t = 0);
                        }
                        ops += rng.range_u64(0, 3);
                    }
                }
                let got = fast.sample_counts(&toggles, cycles, ops);
                let want = slow.sample_counts_reference(&toggles, cycles, ops);
                let at = format!("step {step}, kind {kind}");
                assert_eq!(got.as_ref().map(bits), want.as_ref().map(bits), "{at}");
                assert_eq!(fast.last_toggles, slow.last_toggles, "{at}");
                assert_eq!(
                    (fast.last_cycles, fast.last_ops),
                    (slow.last_cycles, slow.last_ops),
                    "{at}"
                );
                let sums = |t: &LivePowerTrace| {
                    let last = t.last_sample.as_ref().map(bits);
                    (last, t.sampled_ops, t.sampled_pj.to_bits())
                };
                assert_eq!(sums(&fast), sums(&slow), "{at}");
                // The running mean is the mean over every sample taken,
                // computed as the trace did when it kept them all.
                taken.extend(got);
                let ops_sum: u64 = taken.iter().map(|s| s.window_ops).sum();
                let pj_sum: f64 = taken
                    .iter()
                    .map(|s| s.pj_per_op * s.window_ops as f64)
                    .sum();
                let mean = if ops_sum == 0 {
                    0.0
                } else {
                    pj_sum / ops_sum as f64
                };
                assert_eq!(fast.mean_pj_per_op().to_bits(), mean.to_bits(), "{at}");
                assert_eq!(
                    fast.latest_pj_per_op().map(f64::to_bits),
                    taken.last().map(|s| s.pj_per_op.to_bits()),
                    "{at}"
                );
            }
        }
        assert!(
            kinds.iter().all(|&k| k > 0),
            "every window kind ran: {kinds:?}"
        );
    }

    #[test]
    fn energy_scales_with_toggles() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input("a");
        let y = n.not(a);
        n.output_bus("y", &[y]);
        let mut sim = Simulator::new(&n);
        // Toggle the input 10 times → the inverter output toggles 10 times.
        for i in 0..10 {
            sim.set_net(a, i % 2 == 0);
            sim.settle();
        }
        let p = PowerEstimator::from_activity(&n, &sim, 10);
        let params = n.tech().params(crate::tech::CellKind::Inv);
        // 10 output toggles × self energy + 10 input toggles × pin energy.
        let expect_pj = 10.0 * (params.energy_fj + params.input_fj) / 1000.0 / 10.0;
        assert!((p.dynamic_pj_per_op - expect_pj).abs() < 1e-12);
        assert_eq!(p.clock_pj_per_op, 0.0, "no DFFs, no clock energy");
        assert!(p.leakage_mw > 0.0);
    }

    #[test]
    fn clock_energy_charged_per_cycle() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let d = n.input("d");
        let q = n.dff(d);
        n.output_bus("q", &[q]);
        let mut sim = Simulator::new(&n);
        for _ in 0..5 {
            sim.step_cycle(&[(&[d], 0)]);
        }
        let p = PowerEstimator::from_activity(&n, &sim, sim.cycles());
        assert_eq!(p.ops, 5);
        // Data never changes; only clock energy is drawn.
        assert_eq!(p.dynamic_pj_per_op, 0.0);
        let expect = n.tech().dff_clock_energy_fj / 1000.0;
        assert!((p.clock_pj_per_op - expect).abs() < 1e-12);
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input("a");
        let b = n.input("b");
        let y = n.xor2(a, b);
        n.output_bus("y", &[y]);
        let mut sim = Simulator::new(&n);
        for i in 0..4u128 {
            sim.set_bus(&[a, b], i);
            sim.settle();
        }
        let p = PowerEstimator::from_activity(&n, &sim, 4);
        let p100 = p.dynamic_mw_at(100.0);
        let p880 = p.dynamic_mw_at(880.0);
        assert!((p880 / p100 - 8.8).abs() < 1e-9);
        assert!(p.total_mw_at(100.0) > p100, "leakage adds on top");
    }

    #[test]
    fn live_trace_windows_sum_to_estimator_total() {
        // The ops-weighted mean of the live trace must equal the final
        // PowerEstimator average over the same run — same activity,
        // same weights, just accumulated window by window.
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor2(a, b);
        let d = n.dff(x);
        n.output_bus("q", &[d]);
        let mut sim = Simulator::new(&n);
        let mut trace = LivePowerTrace::new(&n, &sim);
        let (mut ops, mut samples) = (0u64, 0);
        for i in 0..12u128 {
            sim.step_cycle(&[(&[a, b], i % 4)]);
            ops += 1;
            if ops.is_multiple_of(3) {
                assert!(trace.sample(&sim, ops).is_some());
                samples += 1;
            }
        }
        let p = PowerEstimator::from_activity(&n, &sim, sim.cycles());
        assert_eq!(samples, 4);
        assert_eq!(trace.last_sample().map(|s| s.ops_end), Some(12));
        assert!((trace.mean_pj_per_op() - p.energy_pj_per_op()).abs() < 1e-9);
        assert!(trace.latest_pj_per_op().unwrap() >= 0.0);
    }

    #[test]
    fn live_trace_handles_empty_window_and_reset() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input("a");
        let y = n.not(a);
        n.output_bus("y", &[y]);
        let mut sim = Simulator::new(&n);
        let mut trace = LivePowerTrace::new(&n, &sim);
        assert_eq!(trace.sample(&sim, 0), None, "no ops yet");
        sim.set_net(a, true);
        sim.settle();
        assert!(trace.sample(&sim, 1).is_some());
        // An activity reset makes the next window unmeasurable; the
        // tracer rebases instead of producing a bogus sample.
        sim.set_net(a, false);
        sim.settle();
        sim.reset_activity();
        assert_eq!(trace.sample(&sim, 2), None);
        sim.set_net(a, true);
        sim.settle();
        assert!(trace.sample(&sim, 3).is_some());
    }

    #[test]
    fn compiled_trace_matches_event_driven_on_glitch_free_logic() {
        // A single-gate circuit has no glitches, so the compiled
        // (zero-delay) toggle source and the event-driven source must
        // produce identical windows with scale 1.0.
        use crate::compiled::CompiledNetlist;
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input("a");
        let y = n.not(a);
        n.output_bus("y", &[y]);
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut csim = crate::compiled::CompiledSim::new(&prog);
        csim.enable_activity(1);
        let mut ctrace = LivePowerTrace::from_counts(&n, csim.toggles(), csim.cycles());
        let mut esim = Simulator::new(&n);
        let mut etrace = LivePowerTrace::new(&n, &esim);
        for i in 0..6u64 {
            csim.set_net_lane(a, 0, i % 2 == 0);
            csim.propagate();
            esim.set_net(a, i % 2 == 0);
            esim.settle();
        }
        let cs = ctrace
            .sample_counts(csim.toggles(), csim.cycles(), 6)
            .unwrap();
        let es = etrace.sample(&esim, 6).unwrap();
        assert_eq!(cs, es, "compiled and event-driven windows agree");
        assert!(cs.pj_per_op > 0.0);
        // The scale hook inflates the window linearly.
        let zeros = vec![0u64; n.net_count()];
        let scaled = LivePowerTrace::from_counts(&n, &zeros, 0).with_scale(2.0);
        let mut scaled = scaled;
        let s = scaled
            .sample_counts(csim.toggles(), csim.cycles(), 6)
            .unwrap();
        assert!((s.pj_per_op - 2.0 * cs.pj_per_op).abs() < 1e-12);
    }

    #[test]
    fn per_block_attribution_sums_to_total() {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let a = n.input("a");
        let b = n.input("b");
        let x = n.in_block("A", |n| n.xor2(a, b));
        let y = n.in_block("B", |n| n.and2(x, a));
        n.output_bus("y", &[y]);
        let mut sim = Simulator::new(&n);
        for i in 0..8u128 {
            sim.set_bus(&[a, b], i % 4);
            sim.settle();
        }
        let p = PowerEstimator::from_activity(&n, &sim, 8);
        let sum: f64 = p.per_block_pj.iter().map(|(_, e)| e).sum();
        assert!((sum - p.dynamic_pj_per_op).abs() < 1e-12);
    }
}
