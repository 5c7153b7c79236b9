//! Compiled bit-parallel ("PPSFP"-style) gate evaluation.
//!
//! [`CompiledNetlist::compile`] lowers a [`Netlist`] once into a flat
//! program: gates in a topological order that follows creation order
//! (so a pass reads and writes nearby words), with their net indices
//! resolved, plus the DFF D→Q pairs. [`LaneSim`] then evaluates the
//! program over per-net words of `W` `u64` chunks ([`Lanes`]): bit `l`
//! of a word is an independent simulation *lane*, so one pass over the
//! gate array evaluates **`64 * W` input vectors (or fault machines) at
//! once** with no event queue, no heap allocation and perfect streaming
//! access over the op array. Each gate takes one dispatch on its cell
//! kind, which evaluates all `W` chunks.
//!
//! # Which width runs where
//!
//! The width is fixed per simulator, as a `const` parameter, so each
//! width compiles to its own straight-line kernel; choosing it per pass
//! would put a loop bound where the chunk count is now a constant. A pass
//! costs about the same however few of its lanes carry work, and every
//! pass walks the whole word array, so the width should match the lanes
//! the owner actually fills:
//!
//! - [`CompiledSim`] is width [`LANE_WORDS`] (4): [`LANES`] (256) lanes,
//!   a [`LaneWord`] (`[u64; 4]`) per net. Monte-Carlo power, the fault
//!   campaigns, equivalence sweeps and the pool engine's scrubs fill
//!   their passes, so they run here.
//! - The multiplication service runs width 1 (64 lanes, a quarter of
//!   the words): a served tick carries a few client lanes plus a small
//!   patrol slice, and a rare full batch spills over several 64-lane
//!   passes instead.
//!
//! # Division of labour
//!
//! The event-driven [`crate::sim::Simulator`] stays the source of truth
//! for everything *timing-dependent*: glitch power and transient (SEU)
//! faults. The compiled engine serves value-level paths
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
//! [`LaneSim::enable_activity`] turns on bit-parallel toggle
//! counting inside the gate sweep of [`LaneSim::propagate`]: the word
//! a gate is about to overwrite is its output's previous settled value,
//! so each write adds `popcount((new ^ old) & lane_mask)` to that net
//! (skipped when the masked difference is zero). Only source nets —
//! inputs, constants, DFF outputs — keep a copy of their previous word.
//! This accumulates **zero-delay** toggle counts for every lane of a
//! pass in the one pass that computes them. Toggle counts are
//! lane-separable: a lane's count does not depend on its neighbours or
//! on the width it ran at. Zero-delay counts see only
//! settled-state transitions — glitches filtered by real gate delays
//! never appear — so power estimation scales them by a per-block
//! glitch-inflation factor calibrated against the event-driven simulator (see
//! `mfm_evalkit::calibrate`). The exact-parity contract — compiled
//! toggle counts equal an event-driven run with zero delays on the same
//! vectors — is asserted in `tests/power_parity.rs`.
//!
//! # Fault overlay
//!
//! [`LaneSim::inject_stuck_at`] forces a net per *lane*: a lane mask
//! (one bit per lane) selects the lanes in which the net is stuck, so a
//! single pass can carry one fault machine per lane next to a fault-free
//! reference lane. A per-net flag marks the faulted
//! nets, and only their words are blended with the forced values; the
//! overlay arrays are allocated on the first injection. A fault
//! campaign arms lane `l` with site `l` through
//! `inject_stuck_at(net, lane_mask(l), value)`.
//!
//! # Reuse
//!
//! A long-lived owner keeps one settled simulator instead of building
//! one per pass: [`LaneSim::arm_overlays`] swaps in a plan of
//! stuck-at sets only when the plan changes, and
//! [`LaneSim::rearm_activity`] restarts toggle counting from the
//! fault-free power-on state. Each pass then equals one on a freshly
//! built simulator, without allocating, zeroing and settling it.
//!
//! # Lane-partitioned passes
//!
//! Lanes never read each other, and a pass costs about the same however
//! few of them carry work. [`LaneSim::arm_overlays`] therefore takes
//! one stuck-at set per lane *partition*, so a single pass can serve a
//! batch under one unit's faults, replica copies under other units'
//! faults and a scrub slice under a third, each lane equal to the same
//! lane of a separate pass under its own set. Toggle counting over a
//! lane prefix ([`LaneSim::rearm_activity`]) sees only the
//! partition laid out first.

use std::sync::OnceLock;

use crate::netlist::{NetId, Netlist, NetlistError};
use crate::tech::CellKind;

/// Lanes evaluated per [`CompiledSim`] pass (bits in a [`LaneWord`]).
pub const LANES: usize = 256;

/// `u64` chunks in a [`LaneWord`]: the width of [`CompiledSim`].
pub const LANE_WORDS: usize = LANES / 64;

/// A `64 * W`-lane machine word: bit `l` (chunk `l / 64`, bit `l % 64`)
/// is lane `l`. Used both for per-net values and for lane masks of a
/// [`LaneSim`] of width `W`.
pub type Lanes<const W: usize> = [u64; W];

/// One 256-lane machine word: the [`Lanes`] of [`CompiledSim`].
pub type LaneWord = Lanes<LANE_WORDS>;

/// Mask selecting no lanes.
pub const NO_LANES: LaneWord = [0; LANE_WORDS];

/// Mask selecting all [`LANES`] lanes.
pub const ALL_LANES: LaneWord = [!0; LANE_WORDS];

/// Mask selecting exactly `lane` in a `64 * W`-lane word.
///
/// # Panics
///
/// Panics if `lane >= 64 * W`.
#[must_use]
pub fn lane_mask<const W: usize>(lane: usize) -> Lanes<W> {
    assert!(lane < 64 * W, "lane {lane} out of range");
    let mut m = [0; W];
    m[lane / 64] = 1u64 << (lane % 64);
    m
}

/// Mask selecting lanes `0..n` of a `64 * W`-lane word.
///
/// # Panics
///
/// Panics if `n > 64 * W`.
#[must_use]
pub fn first_lanes<const W: usize>(n: usize) -> Lanes<W> {
    assert!(n <= 64 * W, "lane count {n} out of range");
    let mut m = [0; W];
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

/// Mask selecting lanes `lo..hi` (empty when `hi <= lo`).
///
/// # Panics
///
/// Panics if `hi > 64 * W`.
#[must_use]
pub fn lane_range<const W: usize>(lo: usize, hi: usize) -> Lanes<W> {
    let (low, high) = (first_lanes::<W>(lo.min(hi)), first_lanes::<W>(hi));
    std::array::from_fn(|k| high[k] & !low[k])
}

/// One lowered gate: resolved input/output net indices, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GateOp {
    kind: CellKind,
    a: u32,
    b: u32,
    c: u32,
    d: u32,
    out: u32,
}

/// A [`Netlist`] lowered into a flat, topologically ordered evaluation
/// program.
///
/// Compiling is done once per netlist ([`Netlist::compiled`] caches the
/// program); the program is immutable and can be shared
/// (`&CompiledNetlist` is `Sync`) by any number of [`LaneSim`]
/// instances across threads.
#[derive(Debug, Clone)]
pub struct CompiledNetlist {
    net_count: usize,
    one: u32,
    ops: Vec<GateOp>,
    /// `(d_net, q_net)` per DFF, in instantiation order.
    dffs: Vec<(u32, u32)>,
    /// Nets no gate op writes, ascending: inputs, constants, DFF outputs
    /// and floating nets.
    sources: Vec<u32>,
    /// Every net's value in a fresh simulator (all-zero inputs and
    /// registers, settled, no faults), computed on the first re-arm. All
    /// lanes of that state agree, so one bit per net holds it.
    settled: OnceLock<Vec<bool>>,
}

impl CompiledNetlist {
    /// Lowers `netlist` into a topologically ordered program. The
    /// depth-first walk that orders the cells also rejects combinational
    /// cycles, so a netlist that compiles is never levelized.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// logic contains a cycle: the error of
    /// [`Netlist::levelization`], which only then is computed.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        let Some(order) = creation_topological_order(netlist) else {
            return Err(netlist
                .levelization()
                .expect_err("the fan-in walk met a combinational cycle"));
        };
        let cells = netlist.cells();
        let ops: Vec<GateOp> = order
            .into_iter()
            .map(|ci| {
                let c = &cells[ci];
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
        let mut gate_driven = vec![false; netlist.net_count()];
        for op in &ops {
            gate_driven[op.out as usize] = true;
        }
        let sources = (0..netlist.net_count() as u32)
            .filter(|&n| !gate_driven[n as usize])
            .collect();
        Ok(CompiledNetlist {
            net_count: netlist.net_count(),
            one: netlist.one().index() as u32,
            ops,
            dffs,
            sources,
            settled: OnceLock::new(),
        })
    }

    /// The state a fresh [`LaneSim`] starts in, one value per net.
    fn settled_state(&self) -> &[bool] {
        self.settled.get_or_init(|| {
            LaneSim::<1>::new(self)
                .words
                .iter()
                .map(|&[w]| {
                    debug_assert!(w == 0 || w == !0);
                    w & 1 == 1
                })
                .collect()
        })
    }

    fn is_source(&self, net: usize) -> bool {
        self.sources.binary_search(&(net as u32)).is_ok()
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

/// The combinational cells in a topological order that stays as close to
/// creation order as the netlist allows: each cell comes right after
/// whichever of its fan-in was not placed yet. Builders create a gate
/// next to the gates it reads, so this keeps a pass's reads and writes
/// near each other in the word array, where level order scatters every
/// level over all of it. Any topological order computes the same
/// values. `None` if the combinational logic has a cycle.
fn creation_topological_order(netlist: &Netlist) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        Unplaced,
        /// On the walk's stack: a fan-in of the cell above it.
        OnPath,
        Placed,
    }
    let cells = netlist.cells();
    // DFFs count as placed from the start: their outputs are sources.
    let mut mark: Vec<Mark> = cells
        .iter()
        .map(|c| match c.kind {
            CellKind::Dff => Mark::Placed,
            _ => Mark::Unplaced,
        })
        .collect();
    let mut order = Vec::with_capacity(cells.len());
    // Depth-first over fan-in: a cell is placed once no input is driven
    // by an unplaced cell. The stack is the path from the root, so a
    // pending fan-in already on it closes a cycle.
    let mut stack = Vec::new();
    for root in 0..cells.len() {
        if mark[root] == Mark::Placed {
            continue;
        }
        stack.push(root);
        mark[root] = Mark::OnPath;
        while let Some(&cell) = stack.last() {
            let c = &cells[cell];
            let pending = c.inputs[..c.kind.arity()]
                .iter()
                .filter_map(|&net| netlist.driver_cell(net))
                .map(|src| src.index())
                .find(|&src| mark[src] != Mark::Placed);
            match pending {
                Some(src) if mark[src] == Mark::OnPath => return None,
                Some(src) => {
                    mark[src] = Mark::OnPath;
                    stack.push(src);
                }
                None => {
                    mark[cell] = Mark::Placed;
                    order.push(cell);
                    stack.pop();
                }
            }
        }
    }
    Some(order)
}

#[inline(always)]
fn lanes1<const W: usize>(a: Lanes<W>, f: impl Fn(u64) -> u64) -> Lanes<W> {
    std::array::from_fn(|k| f(a[k]))
}

#[inline(always)]
fn lanes2<const W: usize>(a: Lanes<W>, b: Lanes<W>, f: impl Fn(u64, u64) -> u64) -> Lanes<W> {
    std::array::from_fn(|k| f(a[k], b[k]))
}

#[inline(always)]
fn lanes3<const W: usize>(
    a: Lanes<W>,
    b: Lanes<W>,
    c: Lanes<W>,
    f: impl Fn(u64, u64, u64) -> u64,
) -> Lanes<W> {
    std::array::from_fn(|k| f(a[k], b[k], c[k]))
}

/// Evaluates one gate in all lanes: one dispatch on the cell kind, which
/// loads only the input words that kind reads.
#[inline(always)]
fn eval_op<const W: usize>(words: &[Lanes<W>], op: &GateOp) -> Lanes<W> {
    let w = |net: u32| words[net as usize];
    match op.kind {
        CellKind::Inv => lanes1(w(op.a), |a| !a),
        CellKind::Buf | CellKind::Dff => w(op.a),
        CellKind::Nand2 => lanes2(w(op.a), w(op.b), |a, b| !(a & b)),
        CellKind::Nand3 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| !(a & b & c)),
        CellKind::Nor2 => lanes2(w(op.a), w(op.b), |a, b| !(a | b)),
        CellKind::Nor3 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| !(a | b | c)),
        CellKind::And2 => lanes2(w(op.a), w(op.b), |a, b| a & b),
        CellKind::And3 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| a & b & c),
        CellKind::Or2 => lanes2(w(op.a), w(op.b), |a, b| a | b),
        CellKind::Or3 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| a | b | c),
        CellKind::Xor2 => lanes2(w(op.a), w(op.b), |a, b| a ^ b),
        CellKind::Xnor2 => lanes2(w(op.a), w(op.b), |a, b| !(a ^ b)),
        // Inputs are [a0, a1, sel]: sel picks a1.
        CellKind::Mux2 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| (c & b) | (!c & a)),
        CellKind::Aoi21 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| !((a & b) | c)),
        CellKind::Aoi22 => {
            let (a, b, c, d) = (w(op.a), w(op.b), w(op.c), w(op.d));
            std::array::from_fn(|k| !((a[k] & b[k]) | (c[k] & d[k])))
        }
        CellKind::Oai21 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| !((a | b) & c)),
        CellKind::Maj3 => lanes3(w(op.a), w(op.b), w(op.c), |a, b, c| {
            (a & b) | (a & c) | (b & c)
        }),
    }
}

fn popcount<const W: usize>(w: Lanes<W>) -> u64 {
    w.iter().map(|c| u64::from(c.count_ones())).sum()
}

/// Evaluates `ops` in order over `words`, forcing each faulted output as
/// it is produced. With `COUNT`, each output's toggles in the `mask`
/// lanes are added to `toggles` unconditionally (a zero difference adds
/// zero: with a lane or two counted, a branch on it is a coin flip).
/// Without, the pass only evaluates, and `mask` and `toggles` are unused.
#[inline(always)]
fn eval_gates<const COUNT: bool, const W: usize>(
    ops: &[GateOp],
    words: &mut [Lanes<W>],
    stuck: &[StuckAt<W>],
    stuck_bits: &[u64],
    mask: Lanes<W>,
    toggles: &mut [u64],
) {
    for op in ops {
        let out = op.out as usize;
        let mut new = eval_op(words, op);
        if (stuck_bits[out / 64] >> (out % 64)) & 1 != 0 {
            new = stuck[out].force(new);
        }
        let old = std::mem::replace(&mut words[out], new);
        if COUNT {
            toggles[out] += popcount::<W>(std::array::from_fn(|k| (new[k] ^ old[k]) & mask[k]));
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `i` of row `j` becomes
/// bit `j` of row `i`. Rows are lanes on one side and bus bits on the
/// other, so this turns 64 per-lane values into 64 per-net chunks and
/// back.
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = 0x0000_0000_FFFF_FFFF_u64;
    while width != 0 {
        // Swap the high `width` columns of row k with the low ones of row
        // k + width, for every k with bit `width` clear.
        let mut k = 0;
        while k < 64 {
            let t = ((m[k] >> width) ^ m[k + width]) & mask;
            m[k] ^= t << width;
            m[k + width] ^= t;
            k = (k + width + 1) & !width;
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// One net's stuck-at overlay: the lanes it is forced in and their values.
#[derive(Debug, Clone, Copy)]
struct StuckAt<const W: usize> {
    mask: Lanes<W>,
    value: Lanes<W>,
}

impl<const W: usize> StuckAt<W> {
    /// No lane forced.
    const FREE: Self = StuckAt {
        mask: [0; W],
        value: [0; W],
    };

    #[inline]
    fn force(&self, w: Lanes<W>) -> Lanes<W> {
        std::array::from_fn(|k| (w[k] & !self.mask[k]) | (self.value[k] & self.mask[k]))
    }
}

/// An armed overlay plan: each partition's lanes and the faults forced
/// in them, fault-free partitions left out.
type ArmedPlan<const W: usize> = Vec<(Lanes<W>, Vec<(NetId, bool)>)>;

/// Per-net zero-delay toggle accumulation (see the module docs).
#[derive(Debug, Clone)]
struct Activity<const W: usize> {
    /// Each source net's word as of the previous settled state, in
    /// [`CompiledNetlist`] source order. Gate outputs need none: the
    /// word a gate overwrites is its previous settled value.
    prev: Vec<Lanes<W>>,
    /// Lanes whose transitions are counted.
    mask: Lanes<W>,
    /// Per-net toggle counts summed over active lanes.
    toggles: Vec<u64>,
}

/// The 256-lane simulator: [`LaneSim`] at width [`LANE_WORDS`], the
/// width every fully packed caller runs (see the module docs).
pub type CompiledSim<'p> = LaneSim<'p, LANE_WORDS>;

/// Bit-parallel evaluator over a [`CompiledNetlist`]: `64 * W` lanes per
/// pass ([`LaneSim::LANES`]), one `Lanes<W>` word per net.
///
/// All state is plain `u64` chunks, all evaluation is pure
/// integer arithmetic in a deterministic order — results are
/// bit-identical across runs, thread counts and machines, and each lane
/// is bit-identical across widths.
#[derive(Debug, Clone)]
pub struct LaneSim<'p, const W: usize> {
    prog: &'p CompiledNetlist,
    /// One word per net; bit `l` is lane `l`'s value.
    words: Vec<Lanes<W>>,
    /// Per-net stuck-at overlay; empty until the first fault is injected.
    stuck: Vec<StuckAt<W>>,
    /// One bit per net: set while the net has a non-zero fault mask.
    stuck_bits: Vec<u64>,
    /// Nets with a non-zero fault mask, for cheap clearing.
    faulted: Vec<u32>,
    /// The source nets among `faulted`, forced before each pass.
    faulted_sources: Vec<u32>,
    /// The plan the last [`LaneSim::arm_overlays`] armed, without
    /// its fault-free partitions; `None` once
    /// [`LaneSim::inject_stuck_at`] or [`LaneSim::clear_faults`]
    /// changed the overlay since.
    armed: Option<ArmedPlan<W>>,
    /// Clock edges since construction (or the last activity reset).
    cycles: u64,
    /// The D words sampled at a clock edge, reused across cycles.
    dff_sample: Vec<Lanes<W>>,
    /// Toggle accumulation, when enabled.
    activity: Option<Activity<W>>,
}

impl<'p, const W: usize> LaneSim<'p, W> {
    /// Lanes per pass at this width.
    pub const LANES: usize = 64 * W;

    /// Creates a simulator with all-zero inputs and register state,
    /// settled (constants applied, one propagation pass done), with
    /// activity counting disabled.
    pub fn new(prog: &'p CompiledNetlist) -> Self {
        let mut sim = LaneSim {
            prog,
            words: vec![[0; W]; prog.net_count],
            stuck: Vec::new(),
            stuck_bits: vec![0; prog.net_count.div_ceil(64)],
            faulted: Vec::new(),
            faulted_sources: Vec::new(),
            armed: Some(Vec::new()),
            cycles: 0,
            dff_sample: Vec::with_capacity(prog.dffs.len()),
            activity: None,
        };
        sim.words[prog.one as usize] = [!0; W];
        sim.propagate();
        sim
    }

    /// The compiled program this simulator runs.
    pub fn program(&self) -> &'p CompiledNetlist {
        self.prog
    }

    /// Bytes the simulator holds on the heap, by buffer capacity: its
    /// per-net words, the stuck-at overlay with its flag bits and fault
    /// lists, the armed plan, the activity baseline and counters, and
    /// the DFF sample buffer.
    pub fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let armed = self.armed.as_ref().map_or(0, |plan| {
            bytes(plan) + plan.iter().map(|(_, faults)| bytes(faults)).sum::<usize>()
        });
        let activity = self
            .activity
            .as_ref()
            .map_or(0, |act| bytes(&act.prev) + bytes(&act.toggles));
        bytes(&self.words)
            + bytes(&self.stuck)
            + bytes(&self.stuck_bits)
            + bytes(&self.faulted)
            + bytes(&self.faulted_sources)
            + armed
            + activity
            + bytes(&self.dff_sample)
    }

    /// Sets one net in one lane.
    ///
    /// The setters are meant for source nets (inputs, constants, DFF
    /// outputs): the next [`LaneSim::propagate`] recomputes every
    /// gate output and counts its toggles against the word it overwrites.
    pub fn set_net_lane(&mut self, net: NetId, lane: usize, value: bool) {
        debug_assert!(lane < Self::LANES);
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

    /// Drives `values[l]` onto a bus (LSB first) in lane `l`, for every
    /// `l < values.len()`; the other lanes keep their values. Equals one
    /// [`LaneSim::set_bus_lane`] per lane, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits or `values` is longer
    /// than [`LaneSim::LANES`].
    pub fn set_bus_lanes(&mut self, bus: &[NetId], values: &[u128]) {
        assert!(bus.len() <= 128, "bus too wide for u128");
        assert!(
            values.len() <= Self::LANES,
            "at most {} lanes per pass",
            Self::LANES
        );
        for (k, lane_values) in values.chunks(64).enumerate() {
            let written = first_lanes::<1>(lane_values.len())[0];
            for (half, nets) in bus.chunks(64).enumerate() {
                let mut rows = [0u64; 64];
                for (row, &v) in rows.iter_mut().zip(lane_values) {
                    *row = (v >> (64 * half)) as u64;
                }
                transpose64(&mut rows);
                for (&net, &bits) in nets.iter().zip(&rows) {
                    let w = &mut self.words[net.index()][k];
                    *w = (*w & !written) | (bits & written);
                }
            }
        }
    }

    /// Drives the same integer onto a bus in **all** lanes.
    pub fn set_bus_all(&mut self, bus: &[NetId], value: u128) {
        for (i, &net) in bus.iter().enumerate() {
            self.words[net.index()] = if (value >> i) & 1 == 1 {
                [!0; W]
            } else {
                [0; W]
            };
        }
    }

    /// Reads one net in one lane.
    pub fn read_net_lane(&self, net: NetId, lane: usize) -> bool {
        debug_assert!(lane < Self::LANES);
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

    /// Reads a bus (LSB first) in lanes `0..lanes`: one
    /// [`LaneSim::read_bus_lane`] per lane, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits or
    /// `lanes > LaneSim::LANES`.
    pub fn read_bus_lanes(&self, bus: &[NetId], lanes: usize) -> Vec<u128> {
        assert!(bus.len() <= 128, "bus too wide for u128");
        assert!(lanes <= Self::LANES, "lane count {lanes} out of range");
        let mut values = vec![0u128; lanes];
        for (k, lane_values) in values.chunks_mut(64).enumerate() {
            for (half, nets) in bus.chunks(64).enumerate() {
                let mut rows = [0u64; 64];
                for (row, &net) in rows.iter_mut().zip(nets) {
                    *row = self.words[net.index()][k];
                }
                transpose64(&mut rows);
                for (v, &bits) in lane_values.iter_mut().zip(&rows) {
                    *v |= u128::from(bits) << (64 * half);
                }
            }
        }
        values
    }

    /// Forces `net` to `value` in the lanes selected by `lanes` until
    /// [`LaneSim::clear_faults`]. Faults on the same net merge: each
    /// lane keeps the most recent forced value, so one net can be
    /// stuck-at-0 in one lane and stuck-at-1 in another.
    pub fn inject_stuck_at(&mut self, net: NetId, lanes: Lanes<W>, value: bool) {
        self.armed = None;
        if lanes == [0; W] {
            return;
        }
        if self.stuck.is_empty() {
            self.stuck = vec![StuckAt::FREE; self.prog.net_count];
        }
        let ni = net.index();
        let bit = 1u64 << (ni % 64);
        if self.stuck_bits[ni / 64] & bit == 0 {
            self.stuck_bits[ni / 64] |= bit;
            self.faulted.push(ni as u32);
            if self.prog.is_source(ni) {
                self.faulted_sources.push(ni as u32);
            }
        }
        let s = &mut self.stuck[ni];
        for (k, &lane_bits) in lanes.iter().enumerate() {
            s.mask[k] |= lane_bits;
            if value {
                s.value[k] |= lane_bits;
            } else {
                s.value[k] &= !lane_bits;
            }
        }
    }

    /// Removes every fault overlay (values are refreshed on the next
    /// [`LaneSim::propagate`]).
    pub fn clear_faults(&mut self) {
        self.armed = None;
        for &ni in &self.faulted {
            self.stuck[ni as usize] = StuckAt::FREE;
            self.stuck_bits[ni as usize / 64] = 0;
        }
        self.faulted.clear();
        self.faulted_sources.clear();
    }

    /// Makes `plan` the whole overlay: each `(lanes, faults)` partition
    /// forces its nets in its own lanes only — the settled-value image of
    /// one event-driven unit's stuck-at set per lane range, so one pass
    /// carries several units. A single-unit caller passes one
    /// all-lanes partition. Partitions are meant to be disjoint;
    /// where two overlap on a net, the later one's value wins in the
    /// shared lanes.
    ///
    /// When `plan` equals the plan the previous call armed (partitions
    /// with no lanes or no faults ignored), nothing changes. Otherwise
    /// the old overlay is cleared and every net returns to the state a
    /// fresh simulator starts in before `plan` is injected, so no input,
    /// constant or register word an old fault forced survives.
    pub fn arm_overlays(&mut self, plan: &[(Lanes<W>, &[(NetId, bool)])]) {
        let live = || {
            plan.iter()
                .filter(|(lanes, faults)| *lanes != [0; W] && !faults.is_empty())
        };
        let unchanged = self.armed.as_ref().is_some_and(|armed| {
            armed.len() == live().count()
                && armed
                    .iter()
                    .zip(live())
                    .all(|((al, af), (pl, pf))| al == pl && af[..] == **pf)
        });
        if unchanged {
            return;
        }
        self.clear_faults();
        self.reset();
        for &(lanes, faults) in live() {
            for &(net, value) in faults {
                self.inject_stuck_at(net, lanes, value);
            }
        }
        self.armed = Some(live().map(|&(l, f)| (l, f.to_vec())).collect());
    }

    /// Returns every net to the state a fresh simulator starts in
    /// (all-zero inputs and registers, settled without faults), reusing
    /// the simulator's buffers. The fault overlay is kept and applies on
    /// the next [`LaneSim::propagate`]. The cycle count restarts at
    /// zero, and so does activity counting, if enabled, from this state.
    fn reset(&mut self) {
        for (w, &v) in self.words.iter_mut().zip(self.prog.settled_state()) {
            *w = if v { [!0; W] } else { [0; W] };
        }
        self.cycles = 0;
        if self.activity.is_some() {
            self.reset_activity();
        }
    }

    /// One full pass over the gate array: recomputes every
    /// combinational net in all lanes from the current inputs, register
    /// words and fault overlay. DFF outputs are left untouched. With
    /// activity enabled over at least one lane, each net's toggles are
    /// counted as its word is written; with no lane counted (activity
    /// off, or masked to no lanes) the pass only evaluates.
    pub fn propagate(&mut self) {
        let Self {
            prog,
            words,
            stuck,
            stuck_bits,
            faulted_sources,
            activity,
            ..
        } = self;
        // Force faulted source nets first; gate outputs are forced as
        // they are produced.
        for &ni in faulted_sources.iter() {
            words[ni as usize] = stuck[ni as usize].force(words[ni as usize]);
        }
        let (mask, prev, toggles): (Lanes<W>, &mut [Lanes<W>], &mut [u64]) = match activity {
            Some(act) => (act.mask, &mut act.prev, &mut act.toggles),
            None => ([0; W], &mut [], &mut []),
        };
        // The source baseline tracks the simulator even when no lane is
        // counted, so widening the mask later counts no stale transition.
        for (&src, p) in prog.sources.iter().zip(prev.iter_mut()) {
            let w = words[src as usize];
            toggles[src as usize] +=
                popcount::<W>(std::array::from_fn(|k| (w[k] ^ p[k]) & mask[k]));
            *p = w;
        }
        if mask == [0; W] {
            eval_gates::<false, W>(&prog.ops, words, stuck, stuck_bits, mask, toggles);
        } else {
            eval_gates::<true, W>(&prog.ops, words, stuck, stuck_bits, mask, toggles);
        }
    }

    /// One clock cycle: samples every DFF's D word, writes the Q words,
    /// then propagates the combinational logic. Primary inputs keep
    /// whatever per-lane values were last driven — the compiled analogue
    /// of holding the input buses constant across the edge.
    pub fn step_cycle(&mut self) {
        self.cycles += 1;
        let dffs = &self.prog.dffs;
        // Sample all D words before writing any Q (same-edge semantics).
        self.dff_sample.clear();
        self.dff_sample
            .extend(dffs.iter().map(|&(d, _)| self.words[d as usize]));
        for (&(_, q), &w) in dffs.iter().zip(&self.dff_sample) {
            self.words[q as usize] = w;
        }
        self.propagate();
    }

    /// Clock edges since construction or the last
    /// [`LaneSim::reset_activity`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The current word of every source net, in [`CompiledNetlist`]
    /// source order: the activity baseline.
    fn source_words(&self) -> impl Iterator<Item = Lanes<W>> + '_ {
        self.prog.sources.iter().map(|&s| self.words[s as usize])
    }

    /// Turns on zero-delay toggle counting over lanes `0..lanes`,
    /// baselined at the current settled state. Counters (toggles,
    /// events, cycles) start at zero. Each subsequent
    /// [`LaneSim::propagate`] adds one settled-state transition per
    /// changed net per active lane.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > LaneSim::LANES`.
    pub fn enable_activity(&mut self, lanes: usize) {
        self.activity = Some(Activity {
            prev: self.source_words().collect(),
            mask: first_lanes(lanes),
            toggles: vec![0; self.prog.net_count],
        });
        self.cycles = 0;
    }

    /// Returns every net to the state a fresh simulator starts in and
    /// counts toggles over lanes `0..lanes` from that fixed baseline,
    /// reusing the activity buffers: the passes that follow count exactly
    /// what a fresh simulator with the same overlay and
    /// [`LaneSim::enable_activity`] would.
    ///
    /// # Panics
    ///
    /// Panics if `lanes > LaneSim::LANES`.
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
    /// Panics if activity counting is not enabled or
    /// `lanes > LaneSim::LANES`.
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
        let mut act = self.activity.take().expect("activity not enabled");
        for (p, w) in act.prev.iter_mut().zip(self.source_words()) {
            *p = w;
        }
        act.toggles.iter_mut().for_each(|t| *t = 0);
        self.activity = Some(act);
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
    /// [`LaneSim::toggles`]).
    ///
    /// # Panics
    ///
    /// Panics if activity counting is not enabled.
    pub fn activity_events(&self) -> u64 {
        self.toggles().iter().sum()
    }

    /// Whether toggle counting is enabled.
    pub fn activity_enabled(&self) -> bool {
        self.activity.is_some()
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{CellId, Netlist};
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
        assert_eq!(lane_range(0, 200), first_lanes::<LANE_WORDS>(200));
        assert_eq!(lane_range(60, 68), [0xF << 60, 0xF, 0, 0]);
        assert_eq!(lane_range(9, 9), NO_LANES);
        assert_eq!(lane_range(9, 3), NO_LANES);
        for lane in [0usize, 1, 63, 64, 127, 128, 200, 255] {
            let m = lane_mask::<LANE_WORDS>(lane);
            assert_eq!(m[lane / 64], 1u64 << (lane % 64), "lane {lane}");
            assert_eq!(m.iter().map(|c| c.count_ones()).sum::<u32>(), 1);
        }
        // One chunk: the serving width.
        assert_eq!(first_lanes(0), [0]);
        assert_eq!(first_lanes(5), [0x1F]);
        assert_eq!(first_lanes(64), [!0]);
        assert_eq!(lane_range(60, 64), [0xF << 60]);
        assert_eq!(lane_mask(63), [1u64 << 63]);
    }

    #[test]
    fn eval_word_matches_scalar_eval_for_all_kinds() {
        for kind in CellKind::ALL {
            for bits in 0..16u64 {
                let (a, b, c, d) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0, bits & 8 != 0);
                let scalar = kind.eval(a, b, c, d);
                let to_word = |v: bool| if v { ALL_LANES } else { NO_LANES };
                let words = [to_word(a), to_word(b), to_word(c), to_word(d)];
                let op = GateOp {
                    kind,
                    a: 0,
                    b: 1,
                    c: 2,
                    d: 3,
                    out: 4,
                };
                let word = eval_op(&words, &op);
                assert_eq!(
                    word,
                    if scalar { ALL_LANES } else { NO_LANES },
                    "{kind:?} bits={bits:04b}"
                );
            }
        }
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let mut m: [u64; 64] =
            std::array::from_fn(|j| (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let orig = m;
        transpose64(&mut m);
        for (i, row) in m.iter().enumerate() {
            for (j, col) in orig.iter().enumerate() {
                assert_eq!((row >> j) & 1, (col >> i) & 1, "bit ({i}, {j})");
            }
        }
        transpose64(&mut m);
        assert_eq!(m, orig);
    }

    #[test]
    fn word_wise_bus_io_matches_per_lane_calls() {
        let mut n = fresh();
        let narrow = n.input_bus("narrow", 5);
        let wide = n.input_bus("wide", 128);
        let mid = n.input_bus("mid", 70);
        let prog = CompiledNetlist::compile(&n).unwrap();
        let mut rng = mfm_prng::Rng::new(0xB05);
        for lanes in [1, 63, 64, 65, LANES] {
            for bus in [&narrow, &wide, &mid] {
                let mask = if bus.len() == 128 {
                    !0
                } else {
                    (1u128 << bus.len()) - 1
                };
                let background = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
                let values: Vec<u128> = (0..lanes)
                    .map(|_| (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) & mask)
                    .collect();
                let mut word_wise = CompiledSim::new(&prog);
                let mut per_lane = CompiledSim::new(&prog);
                word_wise.set_bus_all(bus, background);
                per_lane.set_bus_all(bus, background);
                word_wise.set_bus_lanes(bus, &values);
                for (lane, &v) in values.iter().enumerate() {
                    per_lane.set_bus_lane(bus, lane, v);
                }
                assert!(word_wise.words == per_lane.words, "{lanes} lanes");
                let all: Vec<u128> = (0..LANES).map(|l| per_lane.read_bus_lane(bus, l)).collect();
                assert_eq!(word_wise.read_bus_lanes(bus, lanes), all[..lanes]);
                assert_eq!(word_wise.read_bus_lanes(bus, LANES), all);
                assert_eq!(all[..lanes], values[..], "{lanes} lanes read back");
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
        csim.set_bus_lanes(&a, &av);
        csim.set_bus_lanes(&b, &bv);
        csim.propagate();
        let got = csim.read_bus_lanes(&sum, LANES);
        let mut esim = Simulator::new(&n);
        for lane in 0..LANES {
            esim.set_bus(&a, av[lane]);
            esim.set_bus(&b, bv[lane]);
            esim.settle();
            assert_eq!(got[lane], esim.read_bus(&sum), "lane {lane}");
            assert_eq!(got[lane], (av[lane] + bv[lane]) & 0x1FF);
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
        let mut fsim = CompiledSim::new(&prog);
        // Faults across chunk boundaries: lanes 1 and 200.
        fsim.inject_stuck_at(y, lane_mask(1), false); // lane 1: y stuck-at-0
        fsim.inject_stuck_at(y, lane_mask(200), true); // lane 200: y stuck-at-1
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

    /// An 8-bit adder registered once, for the overlay-reuse tests: a
    /// pass drives the operands, clocks twice and reads the register.
    /// `cin` is an input no pass drives, so only a reset restores its
    /// word once its fault is cleared; `sum` holds gate outputs.
    struct Adder {
        n: Netlist,
        a: Vec<NetId>,
        b: Vec<NetId>,
        cin: NetId,
        sum: Vec<NetId>,
        q: Vec<NetId>,
    }

    impl Adder {
        fn new() -> Self {
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
            let q = sum.iter().map(|&s| n.dff(s)).collect();
            Adder {
                n,
                a,
                b,
                cin,
                sum,
                q,
            }
        }

        /// Lane `lane`'s operands in pass `seed`.
        fn operands(lane: usize, seed: usize) -> (u128, u128) {
            (
                ((lane * 37 + seed * 11) & 0xFF) as u128,
                ((lane * 101 + seed * 7 + 3) & 0xFF) as u128,
            )
        }

        /// One pass over `vectors` in lanes `0..vectors.len()` (the other
        /// lanes repeat the first vector): the register in those lanes.
        fn pass<const W: usize>(
            &self,
            sim: &mut LaneSim<'_, W>,
            vectors: &[(u128, u128)],
        ) -> Vec<u128> {
            let (av, bv): (Vec<u128>, Vec<u128>) = vectors.iter().copied().unzip();
            sim.set_bus_all(&self.a, av[0]);
            sim.set_bus_all(&self.b, bv[0]);
            sim.set_bus_lanes(&self.a, &av);
            sim.set_bus_lanes(&self.b, &bv);
            sim.step_cycle();
            sim.step_cycle();
            sim.read_bus_lanes(&self.q, vectors.len())
        }

        /// A fresh simulator with `faults` stuck in every lane.
        fn fresh_sim<'p, const W: usize>(
            prog: &'p CompiledNetlist,
            faults: &[(NetId, bool)],
        ) -> LaneSim<'p, W> {
            let mut sim = LaneSim::new(prog);
            for &(net, value) in faults {
                sim.inject_stuck_at(net, [!0; W], value);
            }
            sim
        }
    }

    #[test]
    fn reused_sim_matches_fresh_through_overlay_changes() {
        let adder = Adder::new();
        let (cin, s3) = (adder.cin, adder.sum[3]);
        let prog = CompiledNetlist::compile(&adder.n).unwrap();
        let overlays: [&[(NetId, bool)]; 4] = [&[], &[(cin, true)], &[], &[(s3, false)]];
        for lanes in [1, 64, LANES] {
            let mut reused = CompiledSim::new(&prog);
            // Re-arming the overlay alone, with no activity reset, must
            // restore the forced carry-in word too.
            let mut values_only = CompiledSim::new(&prog);
            // Two passes per overlay: the second re-arms an unchanged one.
            for (seed, faults) in overlays.iter().flat_map(|f| [f, f]).enumerate() {
                let vectors: Vec<_> = (0..lanes).map(|l| Adder::operands(l, seed)).collect();
                reused.arm_overlays(&[(ALL_LANES, faults)]);
                reused.rearm_activity(lanes);
                let got = adder.pass(&mut reused, &vectors);
                values_only.arm_overlays(&[(ALL_LANES, faults)]);
                assert_eq!(adder.pass(&mut values_only, &vectors), got);
                let mut fresh_sim: CompiledSim<'_> = Adder::fresh_sim(&prog, faults);
                fresh_sim.enable_activity(lanes);
                let want = adder.pass(&mut fresh_sim, &vectors);
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

    /// Lays each round's segments out back to back over passes of
    /// `64 * W` lanes, one partition per segment piece in a pass, with
    /// the first segment (the batch) counted for activity in every pass
    /// it reaches, each from the power-on state. Every segment's lanes
    /// must equal separate passes on fresh simulators under its own
    /// faults, and the batch toggles the sum of fresh passes over its
    /// pieces.
    fn packed_pass_matches_separate_passes<const W: usize>() {
        let adder = Adder::new();
        let (cin, s3, s5) = (adder.cin, adder.sum[3], adder.sum[5]);
        let prog = CompiledNetlist::compile(&adder.n).unwrap();
        let lanes = LaneSim::<W>::LANES;
        type Segment<'f> = (usize, &'f [(NetId, bool)]);
        let rounds: [&[Segment<'_>]; 6] = [
            // Distinct overlays per partition...
            &[(5, &[]), (5, &[(cin, true)]), (8, &[(s3, false)])],
            // ...the same plan again (no re-arm)...
            &[(5, &[]), (5, &[(cin, true)]), (8, &[(s3, false)])],
            // ...overlays that change between passes...
            &[
                (40, &[(s3, true)]),
                (40, &[]),
                (8, &[(cin, true), (s5, false)]),
            ],
            // ...a replica partition that spills into a second pass...
            &[(200, &[(cin, true)]), (100, &[(s5, true)]), (8, &[])],
            // ...a full batch that pushes everything else out...
            &[(lanes, &[(s3, false)]), (8, &[(cin, true)])],
            // ...and a pass with no batch at all.
            &[(0, &[]), (8, &[(s3, false)])],
        ];
        let mut packed = LaneSim::<W>::new(&prog);
        let mut values_only = LaneSim::<W>::new(&prog);
        for (seed, segments) in rounds.iter().enumerate() {
            let total: usize = segments.iter().map(|s| s.0).sum();
            let vectors: Vec<_> = (0..total).map(|l| Adder::operands(l, seed)).collect();
            let mut got = Vec::new();
            let mut batch_toggles = vec![0u64; prog.net_count()];
            for start in (0..total).step_by(lanes) {
                let end = (start + lanes).min(total);
                let mut plan = Vec::new();
                let mut base = 0;
                for &(len, faults) in *segments {
                    let (lo, hi) = (base.max(start), (base + len).min(end));
                    if lo < hi {
                        plan.push((lane_range(lo - start, hi - start), faults));
                    }
                    base += len;
                }
                let batch = segments[0].0.saturating_sub(start).min(lanes);
                packed.arm_overlays(&plan);
                packed.rearm_activity(batch);
                let pass = adder.pass(&mut packed, &vectors[start..end]);
                values_only.arm_overlays(&plan);
                assert_eq!(adder.pass(&mut values_only, &vectors[start..end]), pass);
                got.extend(pass);
                if batch > 0 {
                    for (sum, &t) in batch_toggles.iter_mut().zip(packed.toggles()) {
                        *sum += t;
                    }
                }
            }
            let mut base = 0;
            for (k, &(len, faults)) in segments.iter().enumerate() {
                let mut want = Vec::new();
                let mut want_toggles = vec![0u64; prog.net_count()];
                for chunk in vectors[base..base + len].chunks(lanes) {
                    let mut fresh_sim = Adder::fresh_sim::<W>(&prog, faults);
                    fresh_sim.enable_activity(chunk.len());
                    want.extend(adder.pass(&mut fresh_sim, chunk));
                    for (sum, &t) in want_toggles.iter_mut().zip(fresh_sim.toggles()) {
                        *sum += t;
                    }
                }
                assert_eq!(
                    got[base..base + len],
                    want,
                    "width {W}, round {seed}, segment {k}"
                );
                if k == 0 {
                    assert_eq!(
                        batch_toggles, want_toggles,
                        "width {W}, batch toggles, round {seed}"
                    );
                }
                base += len;
            }
        }
    }

    #[test]
    fn packed_pass_matches_separate_passes_on_fresh_sims() {
        packed_pass_matches_separate_passes::<LANE_WORDS>();
    }

    #[test]
    fn packed_pass_matches_separate_passes_on_fresh_sims_at_64_lanes() {
        packed_pass_matches_separate_passes::<1>();
    }

    #[test]
    fn unchanged_overlay_plan_is_not_rearmed() {
        let adder = Adder::new();
        let prog = CompiledNetlist::compile(&adder.n).unwrap();
        let stuck: &[(NetId, bool)] = &[(adder.cin, true)];
        let plan = [(first_lanes(4), stuck), (lane_range(4, 8), &[][..])];
        let mut sim = CompiledSim::new(&prog);
        sim.arm_overlays(&plan);
        // A word only a re-arm's reset clears.
        let marker = adder.a[0];
        sim.set_net_lane(marker, 9, true);
        // A fault-free partition arms nothing: dropping it keeps the plan.
        sim.arm_overlays(&plan[..1]);
        assert!(sim.read_net_lane(marker, 9), "unchanged plan re-armed");
        sim.arm_overlays(&[(first_lanes(5), stuck)]);
        assert!(!sim.read_net_lane(marker, 9), "changed plan not re-armed");
        // A direct injection invalidates the armed plan.
        sim.arm_overlays(&[(first_lanes(5), stuck)]);
        sim.set_net_lane(marker, 9, true);
        sim.inject_stuck_at(adder.cin, lane_mask(0), true);
        sim.arm_overlays(&[(first_lanes(5), stuck)]);
        assert!(
            !sim.read_net_lane(marker, 9),
            "stale plan survived an injection"
        );
    }

    /// Netlists closed into a combinational loop by `rewire_input`: a
    /// gate reading its own output, two gates reading each other, and a
    /// 40-gate chain whose first gate reads its last.
    fn cyclic_netlists() -> Vec<(&'static str, Netlist)> {
        let mut cases = Vec::new();
        let mut n = fresh();
        let (a, b) = (n.input("a"), n.input("b"));
        let y = n.and2(a, b);
        n.output_bus("y", &[y]);
        n.rewire_input(CellId(0), 1, y);
        cases.push(("self-loop", n));

        let mut n = fresh();
        let (a, b) = (n.input("a"), n.input("b"));
        let x = n.and2(a, b);
        let y = n.or2(x, a);
        n.output_bus("y", &[y]);
        n.rewire_input(CellId(0), 1, y);
        cases.push(("2-cycle", n));

        let mut n = fresh();
        let (a, b) = (n.input("a"), n.input("b"));
        let mut net = n.xor2(a, b);
        for i in 0..39 {
            net = if i % 2 == 0 {
                n.nand2(net, a)
            } else {
                n.nor2(b, net)
            };
        }
        let tail = n.dff(net);
        n.output_bus("q", &[tail]);
        n.rewire_input(CellId(0), 1, net);
        cases.push(("40-cycle", n));
        cases
    }

    #[test]
    fn compile_reports_the_cycle_the_levelization_reports() {
        for (name, n) in cyclic_netlists() {
            // Each path starts from its own unlevelized copy, so each
            // computes the error itself.
            let want = n.clone().levelization().unwrap_err();
            assert!(
                matches!(want, NetlistError::CombinationalCycle(_)),
                "{name}: {want:?}"
            );
            let compiled = CompiledNetlist::compile(&n.clone()).unwrap_err();
            assert_eq!(compiled, want, "{name}: compile");
            assert_eq!(
                n.clone().compiled().unwrap_err(),
                want,
                "{name}: compiled()"
            );
            // A netlist levelized first gives the same error too.
            n.levelization().unwrap_err();
            assert_eq!(CompiledNetlist::compile(&n).unwrap_err(), want, "{name}");
        }
    }

    #[test]
    fn a_register_feedback_loop_still_compiles() {
        // A toggle flop: q feeds an inverter whose output is q's own D.
        let mut n = fresh();
        let a = n.input("a");
        let q = n.dff(a);
        let nq = n.not(q);
        n.output_bus("q", &[q]);
        n.rewire_input(CellId(0), 0, nq);
        let prog = CompiledNetlist::compile(&n).expect("the loop runs through a register");
        assert_eq!((prog.op_count(), prog.dff_count()), (1, 1));
        let mut sim = CompiledSim::new(&prog);
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.step_cycle();
            seen.push(sim.read_net_lane(q, 0));
        }
        assert_eq!(seen, [true, false, true, false]);
    }

    #[test]
    fn paper_units_lower_to_the_same_ops_with_or_without_a_levelization() {
        use crate::sim::reference::mirror;
        use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
        use mfmult::structural::{build_unit, build_unit_quad};
        let check = |name: &str, src: &mfm_gatesim::Netlist| {
            let cold = mirror(src);
            let warm = cold.clone();
            warm.levelization().expect("paper units are acyclic");
            let a = CompiledNetlist::compile(&cold).unwrap();
            let b = CompiledNetlist::compile(&warm).unwrap();
            assert_eq!(a.ops, b.ops, "{name}: op sequence");
            assert_eq!((&a.dffs, &a.sources), (&b.dffs, &b.sources), "{name}");
            // The sequence is a topological order: every op reads only
            // sources and nets written by earlier ops.
            let mut ready: Vec<bool> = (0..a.net_count()).map(|net| a.is_source(net)).collect();
            for op in &a.ops {
                let arity = op.kind.arity();
                let ins = [op.a, op.b, op.c, op.d];
                assert!(ins[..arity].iter().all(|&i| ready[i as usize]), "{name}");
                ready[op.out as usize] = true;
            }
            let comb = cold
                .cells()
                .iter()
                .filter(|c| c.kind != CellKind::Dff)
                .count();
            assert_eq!(a.op_count(), comb, "{name}: every gate lowered");
        };
        let new = || mfm_gatesim::Netlist::new(mfm_gatesim::TechLibrary::cmos45lp());
        let mut n = new();
        build_unit(&mut n);
        check("unit", &n);
        let mut n = new();
        build_unit_quad(&mut n);
        check("quad", &n);
        for placement in PipelinePlacement::ALL {
            let mut n = new();
            build_pipelined_unit(&mut n, placement);
            check(&format!("pipelined {placement:?}"), &n);
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
