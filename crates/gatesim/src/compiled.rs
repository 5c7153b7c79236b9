//! Compiled bit-parallel ("PPSFP"-style) gate evaluation.
//!
//! [`CompiledNetlist::compile`] lowers a [`Netlist`] once into a flat,
//! levelized program: gates sorted by logic level with their net indices
//! resolved, plus the DFF D→Q pairs. [`CompiledSim`] then evaluates the
//! program over [`LaneWord`] chunks (`[u64; 4]`) — bit `l` of the chunk
//! is an independent simulation *lane*, so one pass over the gate array
//! evaluates **[`LANES`] (256) input vectors (or 256 fault machines) at
//! once** with no event queue, no heap allocation and perfect streaming
//! access over the op array.
//!
//! # Division of labour
//!
//! The event-driven [`crate::sim::Simulator`] stays the source of truth
//! for everything *timing-dependent*: glitch power, settle budgets and
//! transient (SEU) faults. The compiled engine serves value-level paths
//! — fault classification, recompute checks, scrub batteries,
//! equivalence sweeps — where only the settled value matters. For
//! acyclic two-valued logic the settled state of the event-driven
//! simulator is a pure function of the primary inputs, register state
//! and stuck-at overlay (inertial delays only filter transient glitches,
//! never change the fixed point), so the two engines agree bit-for-bit
//! on final values; `tests/compiled_equivalence.rs` checks this
//! differentially.
//!
//! # Activity engine
//!
//! [`CompiledSim::enable_activity`] turns on bit-parallel toggle
//! counting: after every [`CompiledSim::propagate`] the simulator XORs
//! each net's new chunk against its previous chunk and popcounts the
//! active lanes, accumulating **zero-delay** toggle counts for up to 256
//! vectors in a single sweep. Zero-delay counts see only settled-state
//! transitions — glitches filtered by real gate delays never appear —
//! so power estimation scales them by a per-block glitch-inflation
//! factor calibrated against the event-driven simulator (see
//! `mfm_evalkit::calibrate`). The exact-parity contract — compiled
//! toggle counts equal an event-driven run with zero delays on the same
//! vectors — is asserted in `tests/power_parity.rs`.
//!
//! # Fault overlay
//!
//! [`CompiledSim::inject_stuck_at`] forces a net per *lane*: a 256-bit
//! [`LaneWord`] mask selects the lanes in which the net is stuck, so a
//! single pass can carry 256 different fault machines (one per lane)
//! next to a fault-free reference lane. [`CompiledFaultSim`] packages
//! the one-fault-per-lane pattern used by fault-coverage campaigns.
//!
//! # Reuse
//!
//! A long-lived owner keeps one settled simulator instead of building
//! one per pass: [`CompiledSim::arm_overlay`] swaps in a unit's stuck-at
//! set only when it changes, and [`CompiledSim::rearm_activity`]
//! restarts toggle counting from the fault-free power-on state. Each
//! pass then equals one on a freshly built simulator, without
//! allocating, zeroing and settling it.

use std::sync::OnceLock;

use crate::netlist::{NetId, Netlist, NetlistError};
use crate::tech::CellKind;

/// Lanes evaluated per pass (bits in a [`LaneWord`]).
pub const LANES: usize = 256;

/// `u64` chunks in a [`LaneWord`].
pub const LANE_WORDS: usize = LANES / 64;

/// One 256-lane machine word: bit `l` (chunk `l / 64`, bit `l % 64`) is
/// lane `l`. Used both for per-net values and for lane masks.
pub type LaneWord = [u64; LANE_WORDS];

/// Mask selecting no lanes.
pub const NO_LANES: LaneWord = [0; LANE_WORDS];

/// Mask selecting all [`LANES`] lanes.
pub const ALL_LANES: LaneWord = [!0; LANE_WORDS];

/// Mask selecting exactly `lane`.
///
/// # Panics
///
/// Panics if `lane >= LANES`.
#[must_use]
pub fn lane_mask(lane: usize) -> LaneWord {
    assert!(lane < LANES, "lane {lane} out of range");
    let mut m = NO_LANES;
    m[lane / 64] = 1u64 << (lane % 64);
    m
}

/// Mask selecting lanes `0..n`.
///
/// # Panics
///
/// Panics if `n > LANES`.
#[must_use]
pub fn first_lanes(n: usize) -> LaneWord {
    assert!(n <= LANES, "lane count {n} out of range");
    let mut m = NO_LANES;
    for (k, chunk) in m.iter_mut().enumerate() {
        let lo = k * 64;
        if n >= lo + 64 {
            *chunk = !0;
        } else if n > lo {
            *chunk = (1u64 << (n - lo)) - 1;
        }
    }
    m
}

/// One lowered gate: resolved input/output net indices, in level order.
#[derive(Debug, Clone, Copy)]
struct GateOp {
    kind: CellKind,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    out: u32,
}

/// A [`Netlist`] lowered into a flat, levelized evaluation program.
///
/// Compiling is done once per netlist ([`Netlist::compiled`] caches the
/// program); the program is immutable and can be shared
/// (`&CompiledNetlist` is `Sync`) by any number of [`CompiledSim`]
/// instances across threads.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    net_count: usize,
    one: u32,
    ops: Vec<GateOp>,
    /// `(d_net, q_net)` per DFF, in instantiation order.
    dffs: Vec<(u32, u32)>,
    /// Every net's value in a fresh simulator (all-zero inputs and
    /// registers, settled, no faults), computed on the first re-arm. All
    /// lanes of that state agree, so one bit per net holds it.
    settled: OnceLock<Vec<bool>>,
}

impl CompiledNetlist {
    /// Lowers `netlist` into a levelized program, reusing the netlist's
    /// cached [`Levelization`](crate::netlist::Levelization).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// logic contains a cycle.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        let lev = netlist.levelization()?;
        let cells = netlist.cells();
        let ops = lev
            .order()
            .iter()
            .map(|&cid| {
                let c = &cells[cid.index()];
                GateOp {
                    kind: c.kind,
                    a: c.inputs[0].index() as u32,
                    b: c.inputs[1].index() as u32,
                    c: c.inputs[2].index() as u32,
                    d: c.inputs[3].index() as u32,
                    out: c.output.index() as u32,
                }
            })
            .collect();
        let dffs = netlist
            .dffs()
            .map(|(_, c)| (c.inputs[0].index() as u32, c.output.index() as u32))
            .collect();
        Ok(CompiledNetlist {
            net_count: netlist.net_count(),
            one: netlist.one().index() as u32,
            ops,
            dffs,
            settled: OnceLock::new(),
        })
    }

    /// The state a fresh [`CompiledSim`] starts in, one value per net.
    fn settled_state(&self) -> &[bool] {
        self.settled.get_or_init(|| {
            CompiledSim::new(self)
                .words
                .iter()
                .map(|w| {
                    debug_assert!(*w == NO_LANES || *w == ALL_LANES);
                    w[0] & 1 == 1
                })
                .collect()
        })
    }

    /// Number of nets in the compiled program.
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of combinational gate ops per pass.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of DFFs in the program.
    pub fn dff_count(&self) -> usize {
        self.dffs.len()
    }
}

#[inline]
fn eval_chunk(kind: CellKind, a: u64, b: u64, c: u64, d: u64) -> u64 {
    match kind {
        CellKind::Inv => !a,
        CellKind::Buf | CellKind::Dff => a,
        CellKind::Nand2 => !(a & b),
        CellKind::Nand3 => !(a & b & c),
        CellKind::Nor2 => !(a | b),
        CellKind::Nor3 => !(a | b | c),
        CellKind::And2 => a & b,
        CellKind::And3 => a & b & c,
        CellKind::Or2 => a | b,
        CellKind::Or3 => a | b | c,
        CellKind::Xor2 => a ^ b,
        CellKind::Xnor2 => !(a ^ b),
        // Inputs are [a0, a1, sel]: sel picks a1.
        CellKind::Mux2 => (c & b) | (!c & a),
        CellKind::Aoi21 => !((a & b) | c),
        CellKind::Aoi22 => !((a & b) | (c & d)),
        CellKind::Oai21 => !((a | b) & c),
        CellKind::Maj3 => (a & b) | (a & c) | (b & c),
    }
}

#[inline]
fn eval_word(kind: CellKind, a: LaneWord, b: LaneWord, c: LaneWord, d: LaneWord) -> LaneWord {
    std::array::from_fn(|i| eval_chunk(kind, a[i], b[i], c[i], d[i]))
}

/// Per-net zero-delay toggle accumulation (see the module docs).
#[derive(Debug, Clone)]
struct Activity {
    /// Each net's chunk as of the previous settled state.
    prev: Vec<LaneWord>,
    /// Lanes whose transitions are counted.
    mask: LaneWord,
    /// Per-net toggle counts summed over active lanes.
    toggles: Vec<u64>,
    /// Total toggles across all nets (Σ `toggles`).
    events: u64,
}

/// Bit-parallel evaluator over a [`CompiledNetlist`]: [`LANES`] (256)
/// lanes per pass.
///
/// All state is plain [`LaneWord`] chunks, all evaluation is pure
/// integer arithmetic in a deterministic order — results are
/// bit-identical across runs, thread counts and machines.
#[derive(Debug, Clone)]
pub struct CompiledSim<'p> {
    prog: &'p CompiledNetlist,
    /// One chunk per net; bit `l` is lane `l`'s value.
    words: Vec<LaneWord>,
    /// Per-net stuck lane mask (all-zero = unfaulted) and forced values.
    fault_mask: Vec<LaneWord>,
    fault_value: Vec<LaneWord>,
    /// Nets with a non-zero fault mask, for cheap clearing/pre-forcing.
    faulted: Vec<u32>,
    /// The overlay the last [`CompiledSim::arm_overlay`] armed; `None`
    /// once [`CompiledSim::inject_stuck_at`] or
    /// [`CompiledSim::clear_faults`] changed it since.
    armed: Option<Vec<(NetId, bool)>>,
    /// Clock edges since construction (or the last activity reset).
    cycles: u64,
    /// Toggle accumulation, when enabled.
    activity: Option<Activity>,
}

impl<'p> CompiledSim<'p> {
    /// Creates a simulator with all-zero inputs and register state,
    /// settled (constants applied, one propagation pass done), with
    /// activity counting disabled.
    pub fn new(prog: &'p CompiledNetlist) -> Self {
        let mut sim = CompiledSim {
            prog,
            words: vec![NO_LANES; prog.net_count],
            fault_mask: vec![NO_LANES; prog.net_count],
            fault_value: vec![NO_LANES; prog.net_count],
            faulted: Vec::new(),
            armed: Some(Vec::new()),
            cycles: 0,
            activity: None,
        };
        sim.words[prog.one as usize] = ALL_LANES;
        sim.propagate();
        sim
    }

    /// The compiled program this simulator runs.
    pub fn program(&self) -> &'p CompiledNetlist {
        self.prog
    }

    /// Sets one net in one lane.
    pub fn set_net_lane(&mut self, net: NetId, lane: usize, value: bool) {
        debug_assert!(lane < LANES);
        let w = &mut self.words[net.index()][lane / 64];
        let bit = 1u64 << (lane % 64);
        *w = (*w & !bit) | if value { bit } else { 0 };
    }

    /// Drives an integer onto a bus (LSB first) in one lane.
    pub fn set_bus_lane(&mut self, bus: &[NetId], lane: usize, value: u128) {
        for (i, &net) in bus.iter().enumerate() {
            self.set_net_lane(net, lane, (value >> i) & 1 == 1);
        }
    }

    /// Drives the same integer onto a bus in **all** lanes.
    pub fn set_bus_all(&mut self, bus: &[NetId], value: u128) {
        for (i, &net) in bus.iter().enumerate() {
            self.words[net.index()] = if (value >> i) & 1 == 1 {
                ALL_LANES
            } else {
                NO_LANES
            };
        }
    }

    /// Reads one net in one lane.
    pub fn read_net_lane(&self, net: NetId, lane: usize) -> bool {
        debug_assert!(lane < LANES);
        (self.words[net.index()][lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Reads a bus (LSB first) in one lane.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits.
    pub fn read_bus_lane(&self, bus: &[NetId], lane: usize) -> u128 {
        assert!(bus.len() <= 128, "bus too wide for u128");
        let mut v = 0u128;
        for (i, &net) in bus.iter().enumerate() {
            if self.read_net_lane(net, lane) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Forces `net` to `value` in the lanes selected by `lanes` until
    /// [`CompiledSim::clear_faults`]. Faults on the same net merge: each
    /// lane keeps the most recent forced value, so one net can be
    /// stuck-at-0 in one lane and stuck-at-1 in another.
    pub fn inject_stuck_at(&mut self, net: NetId, lanes: LaneWord, value: bool) {
        self.armed = None;
        let ni = net.index();
        if self.fault_mask[ni] == NO_LANES && lanes != NO_LANES {
            self.faulted.push(ni as u32);
        }
        for (k, &lane_bits) in lanes.iter().enumerate() {
            self.fault_mask[ni][k] |= lane_bits;
            if value {
                self.fault_value[ni][k] |= lane_bits;
            } else {
                self.fault_value[ni][k] &= !lane_bits;
            }
        }
    }

    /// Removes every fault overlay (values are refreshed on the next
    /// [`CompiledSim::propagate`]).
    pub fn clear_faults(&mut self) {
        self.armed = None;
        for &ni in &self.faulted {
            self.fault_mask[ni as usize] = NO_LANES;
            self.fault_value[ni as usize] = NO_LANES;
        }
        self.faulted.clear();
    }

    /// Makes `faults`, each net stuck in **all** lanes, the whole
    /// overlay: the settled-value image of an event-driven unit's
    /// stuck-at set, for a simulator reused across passes and units.
    /// When `faults` equals the overlay the previous call armed, nothing
    /// changes. Otherwise the old overlay is cleared and every net
    /// returns to the state a fresh simulator starts in before `faults`
    /// is injected, so no input, constant or register word an old fault
    /// forced survives.
    pub fn arm_overlay(&mut self, faults: &[(NetId, bool)]) {
        if self.armed.as_deref() == Some(faults) {
            return;
        }
        self.clear_faults();
        self.reset();
        for &(net, value) in faults {
            self.inject_stuck_at(net, ALL_LANES, value);
        }
        self.armed = Some(faults.to_vec());
    }

    /// Returns every net to the state a fresh simulator starts in
    /// (all-zero inputs and registers, settled without faults), reusing
    /// the simulator's buffers. The fault overlay is kept and applies on
    /// the next [`CompiledSim::propagate`]. The cycle count restarts at
    /// zero, and so does activity counting, if enabled, from this state.
    fn reset(&mut self) {
        for (w, &v) in self.words.iter_mut().zip(self.prog.settled_state()) {
            *w = if v { ALL_LANES } else { NO_LANES };
        }
        self.cycles = 0;
        if self.activity.is_some() {
            self.reset_activity();
        }
    }

    #[inline]
    fn overlay(&mut self, ni: usize) {
        for k in 0..LANE_WORDS {
            let m = self.fault_mask[ni][k];
            self.words[ni][k] = (self.words[ni][k] & !m) | (self.fault_value[ni][k] & m);
        }
    }

    /// One full pass over the levelized gate array: recomputes every
    /// combinational net in all lanes from the current inputs, register
    /// words and fault overlay. DFF outputs are left untouched. With
    /// activity enabled, finishes with the XOR/popcount toggle sweep.
    pub fn propagate(&mut self) {
        // Force faulted source nets (inputs, constants, DFF outputs)
        // first; gate outputs are blended as they are produced.
        for i in 0..self.faulted.len() {
            self.overlay(self.faulted[i] as usize);
        }
        for i in 0..self.prog.ops.len() {
            let op = self.prog.ops[i];
            let w = eval_word(
                op.kind,
                self.words[op.a as usize],
                self.words[op.b as usize],
                self.words[op.c as usize],
                self.words[op.d as usize],
            );
            let out = op.out as usize;
            let m = self.fault_mask[out];
            let f = self.fault_value[out];
            self.words[out] = std::array::from_fn(|k| (w[k] & !m[k]) | (f[k] & m[k]));
        }
        let Self {
            words, activity, ..
        } = self;
        if let Some(act) = activity {
            for (t, (w, p)) in act
                .toggles
                .iter_mut()
                .zip(words.iter().zip(act.prev.iter_mut()))
            {
                let mut n = 0u64;
                for k in 0..LANE_WORDS {
                    n += u64::from(((w[k] ^ p[k]) & act.mask[k]).count_ones());
                }
                *t += n;
                act.events += n;
                *p = *w;
            }
        }
    }

    /// One clock cycle: samples every DFF's D word, writes the Q words,
    /// then propagates the combinational logic. Primary inputs keep
    /// whatever per-lane values were last driven — the compiled analogue
    /// of holding the input buses constant across the edge.
    pub fn step_cycle(&mut self) {
        self.cycles += 1;
        // Sample all D words before writing any Q (same-edge semantics).
        let sampled: Vec<LaneWord> = self
            .prog
            .dffs
            .iter()
            .map(|&(d, _)| self.words[d as usize])
            .collect();
        for (&(_, q), w) in self.prog.dffs.iter().zip(sampled) {
            self.words[q as usize] = w;
        }
        self.propagate();
    }

    /// Clock edges since construction or the last
    /// [`CompiledSim::reset_activity`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Turns on zero-delay toggle counting over lanes `0..lanes`,
    /// baselined at the current settled state. Counters (toggles,
    /// events, cycles) start at zero. Each subsequent
    /// [`CompiledSim::propagate`] adds one settled-state transition per
    /// changed net per active lane.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > LANES`.
    pub fn enable_activity(&mut self, lanes: usize) {
        self.activity = Some(Activity {
            prev: self.words.clone(),
            mask: first_lanes(lanes),
            toggles: vec![0; self.prog.net_count],
            events: 0,
        });
        self.cycles = 0;
    }

    /// Returns every net to the state a fresh simulator starts in and
    /// counts toggles over lanes `0..lanes` from that fixed baseline,
    /// reusing the activity buffers: the passes that follow count exactly
    /// what a fresh simulator with the same overlay and
    /// [`CompiledSim::enable_activity`] would.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > LANES`.
    pub fn rearm_activity(&mut self, lanes: usize) {
        self.reset();
        match &mut self.activity {
            Some(act) => act.mask = first_lanes(lanes),
            None => self.enable_activity(lanes),
        }
    }

    /// Restricts toggle counting to lanes `0..lanes` (for a partial
    /// final round). The baseline state of the newly-masked lanes keeps
    /// tracking the simulator, so re-widening later never counts stale
    /// transitions.
    ///
    /// # Panics
    ///
    /// Panics if activity counting is not enabled or `lanes > LANES`.
    pub fn set_active_lanes(&mut self, lanes: usize) {
        let act = self.activity.as_mut().expect("activity not enabled");
        act.mask = first_lanes(lanes);
    }

    /// Zeroes toggle/event/cycle counters and rebases the activity
    /// baseline at the current settled state.
    ///
    /// # Panics
    ///
    /// Panics if activity counting is not enabled.
    pub fn reset_activity(&mut self) {
        let Self {
            words, activity, ..
        } = self;
        let act = activity.as_mut().expect("activity not enabled");
        act.prev.copy_from_slice(words);
        act.toggles.iter_mut().for_each(|t| *t = 0);
        act.events = 0;
        self.cycles = 0;
    }

    /// Per-net zero-delay toggle counts summed over active lanes.
    ///
    /// # Panics
    ///
    /// Panics if activity counting is not enabled.
    pub fn toggles(&self) -> &[u64] {
        &self
            .activity
            .as_ref()
            .expect("activity not enabled")
            .toggles
    }

    /// Total zero-delay toggles across all nets (Σ of
    /// [`CompiledSim::toggles`]).
    ///
    /// # Panics
    ///
    /// Panics if activity counting is not enabled.
    pub fn activity_events(&self) -> u64 {
        self.activity.as_ref().expect("activity not enabled").events
    }

    /// Whether toggle counting is enabled.
    pub fn activity_enabled(&self) -> bool {
        self.activity.is_some()
    }

    /// Evaluates up to [`LANES`] input vectors in one pass.
    ///
    /// `inputs` pairs each driven bus with one value per lane; every
    /// value slice must have the same length `n ≤ LANES` (lanes
    /// `n..LANES` are driven with vector 0 as a harmless filler).
    /// Returns, per output bus, the `n` per-lane results.
    ///
    /// # Panics
    ///
    /// Panics if value slices disagree in length or exceed [`LANES`]
    /// lanes.
    pub fn run_batch(
        &mut self,
        inputs: &[(&[NetId], &[u128])],
        outputs: &[&[NetId]],
    ) -> Vec<Vec<u128>> {
        let n = inputs.first().map_or(0, |(_, v)| v.len());
        assert!(n <= LANES, "at most {LANES} lanes per pass");
        for (bus, values) in inputs {
            assert_eq!(values.len(), n, "lane count mismatch across buses");
            self.set_bus_all(bus, values.first().copied().unwrap_or(0));
            for (lane, &v) in values.iter().enumerate() {
                self.set_bus_lane(bus, lane, v);
            }
        }
        self.propagate();
        outputs
            .iter()
            .map(|bus| (0..n).map(|lane| self.read_bus_lane(bus, lane)).collect())
            .collect()
    }
}

/// One-fault-per-lane packaging of [`CompiledSim`] for fault campaigns:
/// lane `l` carries fault machine `l`, so a single propagation pass
/// classifies up to [`LANES`] faulty machines against their shared input
/// vector (or a per-lane vector — lanes are fully independent).
#[derive(Debug, Clone)]
pub struct CompiledFaultSim<'p> {
    sim: CompiledSim<'p>,
}

impl<'p> CompiledFaultSim<'p> {
    /// Creates a fault simulator over `prog` with no faults assigned.
    pub fn new(prog: &'p CompiledNetlist) -> Self {
        CompiledFaultSim {
            sim: CompiledSim::new(prog),
        }
    }

    /// Assigns a stuck-at fault to one lane.
    pub fn assign_fault(&mut self, lane: usize, net: NetId, forced: bool) {
        debug_assert!(lane < LANES);
        self.sim.inject_stuck_at(net, lane_mask(lane), forced);
    }
}

impl<'p> std::ops::Deref for CompiledFaultSim<'p> {
    type Target = CompiledSim<'p>;
    fn deref(&self) -> &Self::Target {
        &self.sim
    }
}

impl std::ops::DerefMut for CompiledFaultSim<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::sim::Simulator;
    use crate::tech::TechLibrary;

    fn fresh() -> Netlist {
        Netlist::new(TechLibrary::cmos45lp())
    }

    #[test]
    fn lane_mask_helpers_cover_all_chunks() {
        assert_eq!(first_lanes(0), NO_LANES);
        assert_eq!(first_lanes(LANES), ALL_LANES);
        assert_eq!(first_lanes(64), [!0, 0, 0, 0]);
        assert_eq!(first_lanes(65), [!0, 1, 0, 0]);
        assert_eq!(first_lanes(200), [!0, !0, !0, (1u64 << 8) - 1]);
        for lane in [0usize, 1, 63, 64, 127, 128, 200, 255] {
            let m = lane_mask(lane);
            assert_eq!(m[lane / 64], 1u64 << (lane % 64), "lane {lane}");
            assert_eq!(m.iter().map(|c| c.count_ones()).sum::<u32>(), 1);
        }
    }

    #[test]
    fn eval_word_matches_scalar_eval_for_all_kinds() {
        for kind in CellKind::ALL {
            for bits in 0..16u64 {
                let (a, b, c, d) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
                let scalar = kind.eval(a, b, c, d);
                let to_word = |v: bool| if v { ALL_LANES } else { NO_LANES };
                let word = eval_word(kind, to_word(a), to_word(b), to_word(c), to_word(d));
                assert_eq!(
                    word,
                    if scalar { ALL_LANES } else { NO_LANES },
                    "{kind:?} bits={bits:04b}"
                );
            }
        }
    }

    #[test]
    fn full_adder_all_lanes() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let cin = n.input("cin");
        let (s, co) = n.full_adder(a, b, cin);
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut sim = CompiledSim::new(&prog);
        // All 8 input combinations in 8 lanes of one pass — placed in
        // the top chunk to exercise cross-chunk lane addressing.
        for v in 0..8usize {
            sim.set_bus_lane(&[a, b, cin], 192 + v, v as u128);
        }
        sim.propagate();
        for v in 0..8usize {
            let ones = (v as u32).count_ones();
            assert_eq!(sim.read_net_lane(s, 192 + v), ones & 1 == 1, "v={v}");
            assert_eq!(sim.read_net_lane(co, 192 + v), ones >= 2, "v={v}");
        }
    }

    #[test]
    fn run_batch_matches_event_driven() {
        let mut n = fresh();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let sum: Vec<_> = {
            let mut carry = n.zero();
            let mut out = Vec::new();
            for (&x, &y) in a.iter().zip(&b) {
                let (s, c1) = n.full_adder(x, y, carry);
                out.push(s);
                carry = c1;
            }
            out.push(carry);
            out
        };
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut csim = CompiledSim::new(&prog);
        let av: Vec<u128> = (0..LANES).map(|i| (i * 37 + 11) as u128 & 0xFF).collect();
        let bv: Vec<u128> = (0..LANES).map(|i| (i * 101 + 3) as u128 & 0xFF).collect();
        let got = csim.run_batch(&[(&a, &av), (&b, &bv)], &[&sum]);
        let mut esim = Simulator::new(&n);
        for lane in 0..LANES {
            esim.set_bus(&a, av[lane]);
            esim.set_bus(&b, bv[lane]);
            esim.settle();
            assert_eq!(got[0][lane], esim.read_bus(&sum), "lane {lane}");
            assert_eq!(got[0][lane], (av[lane] + bv[lane]) & 0x1FF);
        }
    }

    #[test]
    fn per_lane_faults_are_independent() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and2(a, b);
        let z = n.not(y);
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut fsim = CompiledFaultSim::new(&prog);
        // Faults across chunk boundaries: lanes 1 and 200.
        fsim.assign_fault(1, y, false); // lane 1: y stuck-at-0
        fsim.assign_fault(200, y, true); // lane 200: y stuck-at-1
        fsim.set_bus_all(&[a, b], 0b11);
        fsim.propagate();
        assert!(fsim.read_net_lane(y, 0), "lane 0 fault-free");
        assert!(!fsim.read_net_lane(z, 0));
        assert!(!fsim.read_net_lane(y, 1), "lane 1 stuck at 0");
        assert!(fsim.read_net_lane(z, 1));
        fsim.set_bus_all(&[a, b], 0b00);
        fsim.propagate();
        assert!(fsim.read_net_lane(y, 200), "lane 200 stuck at 1");
        assert!(!fsim.read_net_lane(z, 200));
        assert!(!fsim.read_net_lane(y, 0));
        fsim.clear_faults();
        fsim.set_bus_all(&[a, b], 0b11);
        fsim.propagate();
        assert!(fsim.read_net_lane(y, 1) && fsim.read_net_lane(y, 200));
    }

    #[test]
    fn dff_pipeline_moves_one_stage_per_cycle() {
        let mut n = fresh();
        let d = n.input("d");
        let q1 = n.dff(d);
        let q2 = n.dff(q1);
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut sim = CompiledSim::new(&prog);
        sim.set_bus_all(&[d], 1);
        sim.step_cycle();
        assert!(sim.read_net_lane(q1, 0) && !sim.read_net_lane(q2, 0));
        sim.step_cycle();
        assert!(
            sim.read_net_lane(q2, 0),
            "value reaches stage 2 one cycle later"
        );
        assert_eq!(sim.cycles(), 2);
    }

    #[test]
    fn activity_counts_settled_transitions_in_active_lanes_only() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.xor2(a, b);
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut sim = CompiledSim::new(&prog);
        sim.enable_activity(LANES);
        // a rises in lanes 0 and 100: a toggles twice, y toggles twice.
        sim.set_net_lane(a, 0, true);
        sim.set_net_lane(a, 100, true);
        sim.propagate();
        assert_eq!(sim.toggles()[a.index()], 2);
        assert_eq!(sim.toggles()[y.index()], 2);
        assert_eq!(sim.toggles()[b.index()], 0);
        assert_eq!(sim.activity_events(), 4);
        // Restrict to lane 0 only: lane 100 transitions stop counting.
        sim.set_active_lanes(1);
        sim.set_net_lane(b, 0, true);
        sim.set_net_lane(b, 100, true);
        sim.propagate();
        assert_eq!(sim.toggles()[b.index()], 1);
        assert_eq!(sim.toggles()[y.index()], 3);
        // Reset rebases the baseline: an identical state adds nothing.
        sim.reset_activity();
        sim.propagate();
        assert_eq!(sim.activity_events(), 0);
    }

    #[test]
    fn reused_sim_matches_fresh_through_overlay_changes() {
        // An 8-bit adder registered once: a pass drives the operands,
        // clocks twice and reads the register. Net A is the carry-in, an
        // input no pass drives, so only a reset restores its word once
        // its fault is cleared; net B is a gate output.
        let mut n = fresh();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let cin = n.input("cin");
        let mut carry = cin;
        let mut sum = Vec::new();
        for (&x, &y) in a.iter().zip(&b) {
            let (s, c) = n.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        sum.push(carry);
        let q: Vec<NetId> = sum.iter().map(|&s| n.dff(s)).collect();
        let prog = CompiledNetlist::compile(&n).unwrap();
        let overlays: [&[(NetId, bool)]; 4] = [&[], &[(cin, true)], &[], &[(sum[3], false)]];
        let pass = |sim: &mut CompiledSim<'_>, lanes: usize, seed: usize| -> Vec<u128> {
            let av: Vec<u128> = (0..lanes)
                .map(|l| ((l * 37 + seed * 11) & 0xFF) as u128)
                .collect();
            let bv: Vec<u128> = (0..lanes)
                .map(|l| ((l * 101 + seed * 7 + 3) & 0xFF) as u128)
                .collect();
            sim.set_bus_all(&a, av[0]);
            sim.set_bus_all(&b, bv[0]);
            for l in 0..lanes {
                sim.set_bus_lane(&a, l, av[l]);
                sim.set_bus_lane(&b, l, bv[l]);
            }
            sim.step_cycle();
            sim.step_cycle();
            (0..lanes).map(|l| sim.read_bus_lane(&q, l)).collect()
        };
        for lanes in [1, 64, LANES] {
            let mut reused = CompiledSim::new(&prog);
            // Re-arming the overlay alone, with no activity reset, must
            // restore the forced carry-in word too.
            let mut values_only = CompiledSim::new(&prog);
            // Two passes per overlay: the second re-arms an unchanged one.
            for (seed, faults) in overlays.iter().flat_map(|f| [f, f]).enumerate() {
                reused.arm_overlay(faults);
                reused.rearm_activity(lanes);
                let got = pass(&mut reused, lanes, seed);
                values_only.arm_overlay(faults);
                assert_eq!(pass(&mut values_only, lanes, seed), got);
                let mut fresh_sim = CompiledSim::new(&prog);
                for &(net, value) in *faults {
                    fresh_sim.inject_stuck_at(net, ALL_LANES, value);
                }
                fresh_sim.enable_activity(lanes);
                let want = pass(&mut fresh_sim, lanes, seed);
                assert_eq!(got, want, "outputs, {lanes} lanes, pass {seed}");
                assert_eq!(
                    reused.toggles(),
                    fresh_sim.toggles(),
                    "toggles, {lanes} lanes, pass {seed}"
                );
                assert_eq!(reused.cycles(), fresh_sim.cycles());
            }
        }
    }

    #[test]
    fn activity_baseline_tracks_masked_lanes() {
        let mut n = fresh();
        let a = n.input("a");
        let y = n.buf(a);
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut sim = CompiledSim::new(&prog);
        sim.enable_activity(1);
        // Lane 5 is masked: its transition must never be counted, even
        // after the mask is widened to include it again.
        sim.set_net_lane(a, 5, true);
        sim.propagate();
        assert_eq!(sim.activity_events(), 0);
        sim.set_active_lanes(64);
        sim.propagate();
        assert_eq!(sim.activity_events(), 0, "stale transition not counted");
        sim.set_net_lane(a, 5, false);
        sim.propagate();
        assert_eq!(sim.toggles()[a.index()], 1);
        assert_eq!(sim.toggles()[y.index()], 1);
    }
}
