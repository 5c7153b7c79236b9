//! Structural netlist representation and builder.
//!
//! A [`Netlist`] is a flat list of standard cells connected by nets, with
//! every cell attributed to a named *block* (e.g. `PPGEN`, `TREE`, `CPA`).
//! Blocks are what the paper's tables decompose delay and power over, so
//! attribution is first-class here.
//!
//! Netlists are built programmatically: each gate method allocates the
//! output net and returns its [`NetId`]. Constant inputs are folded where
//! the logic function collapses, mimicking the constant propagation a
//! synthesizer performs (important for the dual-lane multiplier, where
//! lane blanking ties many inputs to constants).

use crate::compiled::CompiledNetlist;
use crate::tech::{CellKind, TechLibrary};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a net (a single-bit wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

/// Identifier of a cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub(crate) u32);

/// Identifier of a hierarchy block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) u16);

impl NetId {
    /// Index into per-net arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CellId {
    /// Index into per-cell arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// Index into per-block arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// The root block every netlist starts with.
    pub const ROOT: BlockId = BlockId(0);
}

/// One cell instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The standard-cell kind.
    pub kind: CellKind,
    /// Input nets; unused slots repeat the first input.
    pub inputs: [NetId; 4],
    /// Output net (single-output cells only).
    pub output: NetId,
    /// The hierarchy block this cell belongs to.
    pub block: BlockId,
}

impl Cell {
    /// The distinct input nets of this cell (its arity-many pins,
    /// deduplicated): the first `len` entries of the returned array.
    pub fn distinct_inputs(&self) -> ([NetId; 4], usize) {
        let mut ins: [NetId; 4] = self.inputs;
        let arity = self.kind.arity();
        let mut len = 0usize;
        for i in 0..arity {
            if !ins[..len].contains(&self.inputs[i]) {
                ins[len] = self.inputs[i];
                len += 1;
            }
        }
        (ins, len)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// A primary input.
    Input,
    /// Constant zero.
    Const0,
    /// Constant one.
    Const1,
    /// The output of a cell.
    Cell(CellId),
}

/// Errors detected by [`Netlist::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A combinational cycle exists through the listed cell.
    CombinationalCycle(CellId),
    /// A named output bus references an undriven net.
    UndrivenOutput(String, NetId),
    /// A cell input pin references an undriven net.
    UndrivenCellInput(CellId, NetId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::CombinationalCycle(c) => {
                write!(f, "combinational cycle through cell {}", c.0)
            }
            NetlistError::UndrivenOutput(name, n) => {
                write!(f, "output bus {name} references undriven net {}", n.0)
            }
            NetlistError::UndrivenCellInput(c, n) => {
                write!(f, "cell {} consumes undriven net {}", c.0, n.0)
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// One reference to a net this netlist never allocated (typically a
/// [`NetId`] leaked from a *different* netlist). Returned by
/// [`Netlist::undriven_refs`], which backs both [`Netlist::check`] and the
/// `mfm-lint` structural-hygiene pass, so the two can never drift apart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndrivenRef {
    /// Input pin `pin` of `cell` consumes the undriven net.
    CellInput {
        /// The consuming cell.
        cell: CellId,
        /// The consuming input pin index.
        pin: usize,
        /// The undriven net.
        net: NetId,
    },
    /// Bit `bit` of the named output bus references the undriven net.
    OutputBus {
        /// The output bus name.
        name: String,
        /// The bit index within the bus (LSB = 0).
        bit: usize,
        /// The undriven net.
        net: NetId,
    },
}

/// Cached levelized view of the combinational logic.
///
/// Computed once per netlist (lazily, via [`Netlist::levelization`]) and
/// shared by the event-driven simulator, static timing analysis and the
/// lint passes (the compiled lowering orders and checks the cells by
/// its own walk, and levelizes only to report a cycle):
///
/// - a deterministic topological order of the combinational cells, sorted
///   by logic level (then by cell index within a level),
/// - the logic level of every cell (DFFs are level 0 sources),
/// - a CSR (offsets + flat indices) mapping each net to the combinational
///   cells it feeds, replacing the per-simulator `Vec<Vec<u32>>` fanout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    order: Vec<CellId>,
    level: Vec<u32>,
    max_level: u32,
    fanout_offsets: Vec<u32>,
    fanout_cells: Vec<u32>,
    sink_offsets: Vec<u32>,
    sink_cells: Vec<u32>,
}

impl Levelization {
    /// Topological order of the combinational cells, sorted by
    /// `(logic level, cell index)`. DFFs are excluded.
    pub fn order(&self) -> &[CellId] {
        &self.order
    }

    /// Logic level of a cell: `0` for cells fed only by primary inputs,
    /// constants or DFF outputs, otherwise `1 + max(level of fanins)`.
    /// DFFs report level `0`.
    pub fn level_of(&self, cell: CellId) -> u32 {
        self.level[cell.index()]
    }

    /// The deepest combinational level in the netlist.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Indices of the combinational cells fed by `net`, ascending and
    /// deduplicated (a cell using the net on several pins appears once).
    pub fn fanout_of(&self, net: NetId) -> &[u32] {
        let lo = self.fanout_offsets[net.index()] as usize;
        let hi = self.fanout_offsets[net.index() + 1] as usize;
        &self.fanout_cells[lo..hi]
    }

    /// Indices of **all** cells consuming `net` — DFFs included, unlike
    /// [`Levelization::fanout_of`] — ascending and deduplicated. This is
    /// the static-analysis hook: zero-fanout and dead-cone detection need
    /// register sinks, which the simulator-facing CSR deliberately omits.
    pub fn consumers_of(&self, net: NetId) -> &[u32] {
        let lo = self.sink_offsets[net.index()] as usize;
        let hi = self.sink_offsets[net.index() + 1] as usize;
        &self.sink_cells[lo..hi]
    }
}

/// A structural gate-level netlist.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Netlist {
    tech: TechLibrary,
    cells: Vec<Cell>,
    drivers: Vec<Driver>,
    const0: NetId,
    const1: NetId,
    inputs: Vec<NetId>,
    input_buses: Vec<(String, Vec<NetId>)>,
    output_buses: Vec<(String, Vec<NetId>)>,
    blocks: Vec<String>,
    block_stack: Vec<BlockId>,
    inv_cache: HashMap<NetId, NetId>,
    dff_cache: HashMap<NetId, NetId>,
    topo: OnceLock<Result<Levelization, NetlistError>>,
    program: OnceLock<Result<CompiledNetlist, NetlistError>>,
}

impl Netlist {
    /// Creates an empty netlist over the given technology library.
    pub fn new(tech: TechLibrary) -> Self {
        let mut n = Netlist {
            tech,
            cells: Vec::new(),
            drivers: Vec::new(),
            const0: NetId(0),
            const1: NetId(0),
            inputs: Vec::new(),
            input_buses: Vec::new(),
            output_buses: Vec::new(),
            blocks: vec!["TOP".to_owned()],
            block_stack: vec![BlockId::ROOT],
            inv_cache: HashMap::new(),
            dff_cache: HashMap::new(),
            topo: OnceLock::new(),
            program: OnceLock::new(),
        };
        n.const0 = n.alloc_net(Driver::Const0);
        n.const1 = n.alloc_net(Driver::Const1);
        n
    }

    /// The technology library this netlist is built on.
    pub fn tech(&self) -> &TechLibrary {
        &self.tech
    }

    fn alloc_net(&mut self, driver: Driver) -> NetId {
        // Every structural mutation allocates a net (cell outputs included),
        // so this is the single invalidation point for the cached
        // levelization and program.
        self.drop_cached_views();
        let id = NetId(self.drivers.len() as u32);
        self.drivers.push(driver);
        id
    }

    /// Number of nets (including the two constants).
    pub fn net_count(&self) -> usize {
        self.drivers.len()
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// All cells, in instantiation order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The driver of a net.
    pub fn driver(&self, net: NetId) -> Driver {
        self.drivers[net.index()]
    }

    /// The constant-0 net.
    pub fn zero(&self) -> NetId {
        self.const0
    }

    /// The constant-1 net.
    pub fn one(&self) -> NetId {
        self.const1
    }

    /// Returns the constant net for `value`.
    pub fn lit(&self, value: bool) -> NetId {
        if value {
            self.const1
        } else {
            self.const0
        }
    }

    /// Returns `Some(value)` if `net` is one of the constant nets.
    pub fn const_value(&self, net: NetId) -> Option<bool> {
        match self.drivers[net.index()] {
            Driver::Const0 => Some(false),
            Driver::Const1 => Some(true),
            _ => None,
        }
    }

    /// The cell driving `net`, if it is a cell output (as opposed to a
    /// primary input or constant).
    pub fn driver_cell(&self, net: NetId) -> Option<CellId> {
        match self.drivers[net.index()] {
            Driver::Cell(c) => Some(c),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Hierarchy blocks
    // ------------------------------------------------------------------

    /// Opens a nested block; subsequent cells are attributed to it.
    /// Block names are path-joined with `/`.
    pub fn begin_block(&mut self, name: &str) -> BlockId {
        let parent = *self.block_stack.last().expect("block stack never empty");
        let path = if parent == BlockId::ROOT {
            name.to_owned()
        } else {
            format!("{}/{}", self.blocks[parent.index()], name)
        };
        let id = BlockId(self.blocks.len() as u16);
        self.blocks.push(path);
        self.block_stack.push(id);
        id
    }

    /// Closes the innermost open block.
    ///
    /// # Panics
    ///
    /// Panics if called with no open block.
    pub fn end_block(&mut self) {
        assert!(self.block_stack.len() > 1, "end_block without begin_block");
        self.block_stack.pop();
    }

    /// Runs `f` with a block opened, closing it afterwards.
    pub fn in_block<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin_block(name);
        let r = f(self);
        self.end_block();
        r
    }

    /// The currently open block.
    pub fn current_block(&self) -> BlockId {
        *self.block_stack.last().expect("block stack never empty")
    }

    /// Full path name of a block.
    pub fn block_name(&self, id: BlockId) -> &str {
        &self.blocks[id.index()]
    }

    /// Number of blocks (including the root).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The *top-level* block a cell belongs to: the first path component.
    /// Cells in the root block report `"TOP"`.
    pub fn top_level_block_name(&self, id: BlockId) -> &str {
        let path = self.block_name(id);
        path.split('/').next().unwrap_or(path)
    }

    // ------------------------------------------------------------------
    // Primary I/O
    // ------------------------------------------------------------------

    /// Declares a single-bit primary input.
    pub fn input(&mut self, name: &str) -> NetId {
        let id = self.alloc_net(Driver::Input);
        self.inputs.push(id);
        self.input_buses.push((name.to_owned(), vec![id]));
        id
    }

    /// Declares a `width`-bit primary input bus, LSB first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<NetId> {
        let nets: Vec<NetId> = (0..width).map(|_| self.alloc_net(Driver::Input)).collect();
        self.inputs.extend(&nets);
        self.input_buses.push((name.to_owned(), nets.clone()));
        nets
    }

    /// Declares a named output bus (LSB first).
    pub fn output_bus(&mut self, name: &str, nets: &[NetId]) {
        self.output_buses.push((name.to_owned(), nets.to_vec()));
    }

    /// All primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Named input buses.
    pub fn input_buses(&self) -> &[(String, Vec<NetId>)] {
        &self.input_buses
    }

    /// Named output buses.
    pub fn output_buses(&self) -> &[(String, Vec<NetId>)] {
        &self.output_buses
    }

    /// Looks up an output bus by name.
    pub fn output_bus_named(&self, name: &str) -> Option<&[NetId]> {
        self.output_buses
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, nets)| nets.as_slice())
    }

    // ------------------------------------------------------------------
    // Cell instantiation
    // ------------------------------------------------------------------

    /// Instantiates a raw cell without constant folding.
    pub fn cell(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        debug_assert_eq!(inputs.len(), kind.arity(), "{kind:?} arity");
        let out = self.alloc_net(Driver::Cell(CellId(self.cells.len() as u32)));
        let mut ins = [inputs[0]; 4];
        ins[..inputs.len()].copy_from_slice(inputs);
        self.cells.push(Cell {
            kind,
            inputs: ins,
            output: out,
            block: self.current_block(),
        });
        out
    }

    /// Inverter (folds constants; at most one inverter per net — repeated
    /// calls return the existing cell's output).
    pub fn not(&mut self, a: NetId) -> NetId {
        match self.const_value(a) {
            Some(v) => self.lit(!v),
            None => {
                if let Some(&out) = self.inv_cache.get(&a) {
                    return out;
                }
                let out = self.cell(CellKind::Inv, &[a]);
                self.inv_cache.insert(a, out);
                out
            }
        }
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        match self.const_value(a) {
            Some(v) => self.lit(v),
            None => self.cell(CellKind::Buf, &[a]),
        }
    }

    /// 2-input AND (folds constants and `a & a`).
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => self.zero(),
            (Some(true), _) => self.bufless(b),
            (_, Some(true)) => self.bufless(a),
            _ if a == b => self.bufless(a),
            _ => self.cell(CellKind::And2, &[a, b]),
        }
    }

    /// 2-input OR (folds constants and `a | a`).
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) | (_, Some(true)) => self.one(),
            (Some(false), _) => self.bufless(b),
            (_, Some(false)) => self.bufless(a),
            _ if a == b => self.bufless(a),
            _ => self.cell(CellKind::Or2, &[a, b]),
        }
    }

    /// 2-input XOR (folds constants and `a ^ a`).
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) => self.bufless(b),
            (_, Some(false)) => self.bufless(a),
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ if a == b => self.zero(),
            _ => self.cell(CellKind::Xor2, &[a, b]),
        }
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) => self.bufless(b),
            (_, Some(true)) => self.bufless(a),
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ if a == b => self.one(),
            _ => self.cell(CellKind::Xnor2, &[a, b]),
        }
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => self.one(),
            (Some(true), _) => self.not(b),
            (_, Some(true)) => self.not(a),
            _ => self.cell(CellKind::Nand2, &[a, b]),
        }
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) | (_, Some(true)) => self.zero(),
            (Some(false), _) => self.not(b),
            (_, Some(false)) => self.not(a),
            _ => self.cell(CellKind::Nor2, &[a, b]),
        }
    }

    /// 3-input AND.
    pub fn and3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        if self.const_value(a).is_some()
            || self.const_value(b).is_some()
            || self.const_value(c).is_some()
        {
            let ab = self.and2(a, b);
            return self.and2(ab, c);
        }
        self.cell(CellKind::And3, &[a, b, c])
    }

    /// 3-input OR.
    pub fn or3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        if self.const_value(a).is_some()
            || self.const_value(b).is_some()
            || self.const_value(c).is_some()
        {
            let ab = self.or2(a, b);
            return self.or2(ab, c);
        }
        self.cell(CellKind::Or3, &[a, b, c])
    }

    /// 2:1 mux: returns `sel ? a1 : a0` (folds constants).
    pub fn mux2(&mut self, sel: NetId, a0: NetId, a1: NetId) -> NetId {
        match self.const_value(sel) {
            Some(false) => return self.bufless(a0),
            Some(true) => return self.bufless(a1),
            None => {}
        }
        if a0 == a1 {
            return self.bufless(a0);
        }
        match (self.const_value(a0), self.const_value(a1)) {
            (Some(false), Some(true)) => return self.bufless(sel),
            (Some(true), Some(false)) => return self.not(sel),
            (Some(false), None) => return self.and2(sel, a1),
            (None, Some(false)) => {
                let ns = self.not(sel);
                return self.and2(ns, a0);
            }
            (Some(true), None) => {
                let ns = self.not(sel);
                return self.or2(ns, a1);
            }
            (None, Some(true)) => return self.or2(sel, a0),
            _ => {}
        }
        self.cell(CellKind::Mux2, &[a0, a1, sel])
    }

    /// 3-input majority (folds constants).
    pub fn maj3(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        let consts = [
            self.const_value(a),
            self.const_value(b),
            self.const_value(c),
        ];
        match consts {
            [Some(x), Some(y), Some(z)] => return self.lit((x as u8 + y as u8 + z as u8) >= 2),
            [Some(false), _, _] => return self.and2(b, c),
            [_, Some(false), _] => return self.and2(a, c),
            [_, _, Some(false)] => return self.and2(a, b),
            [Some(true), _, _] => return self.or2(b, c),
            [_, Some(true), _] => return self.or2(a, c),
            [_, _, Some(true)] => return self.or2(a, b),
            _ => {}
        }
        self.cell(CellKind::Maj3, &[a, b, c])
    }

    /// AOI21: `!((a & b) | c)`.
    pub fn aoi21(&mut self, a: NetId, b: NetId, c: NetId) -> NetId {
        if self.const_value(a).is_some()
            || self.const_value(b).is_some()
            || self.const_value(c).is_some()
        {
            let ab = self.and2(a, b);
            let abc = self.or2(ab, c);
            return self.not(abc);
        }
        self.cell(CellKind::Aoi21, &[a, b, c])
    }

    /// AOI22: `!((a & b) | (c & d))` (folds constants).
    pub fn aoi22(&mut self, a: NetId, b: NetId, c: NetId, d: NetId) -> NetId {
        if self.const_value(a).is_some()
            || self.const_value(b).is_some()
            || self.const_value(c).is_some()
            || self.const_value(d).is_some()
        {
            let ab = self.and2(a, b);
            let cd = self.and2(c, d);
            let s = self.or2(ab, cd);
            return self.not(s);
        }
        self.cell(CellKind::Aoi22, &[a, b, c, d])
    }

    /// Full adder: returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, c: NetId) -> (NetId, NetId) {
        let ab = self.xor2(a, b);
        let sum = self.xor2(ab, c);
        let carry = self.maj3(a, b, c);
        (sum, carry)
    }

    /// Half adder: returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        (self.xor2(a, b), self.and2(a, b))
    }

    /// Rising-edge D flip-flop; returns the Q net.
    pub fn dff(&mut self, d: NetId) -> NetId {
        // Two single-clock flops with the same D always hold the same Q;
        // share one cell per registered net.
        if let Some(&out) = self.dff_cache.get(&d) {
            return out;
        }
        let out = self.cell(CellKind::Dff, &[d]);
        self.dff_cache.insert(d, out);
        out
    }

    /// Registers a whole bus; returns the Q nets.
    pub fn dff_bus(&mut self, d: &[NetId]) -> Vec<NetId> {
        d.iter().map(|&bit| self.dff(bit)).collect()
    }

    /// Like `buf`, but does not insert a cell: returns the net unchanged.
    /// Used by folding paths that just forward a value.
    fn bufless(&mut self, a: NetId) -> NetId {
        a
    }

    // ------------------------------------------------------------------
    // Analysis helpers
    // ------------------------------------------------------------------

    /// Total cell area in µm².
    pub fn area_um2(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.tech.params(c.kind).area_um2)
            .sum()
    }

    /// Area as a NAND2-equivalent gate count.
    pub fn area_nand2(&self) -> f64 {
        self.tech.um2_to_nand2(self.area_um2())
    }

    /// Cell count per kind.
    pub fn count_by_kind(&self) -> HashMap<CellKind, usize> {
        let mut m = HashMap::new();
        for c in &self.cells {
            *m.entry(c.kind).or_insert(0) += 1;
        }
        m
    }

    /// Area per top-level block, as `(name, µm²)` sorted by name.
    pub fn area_by_block(&self) -> Vec<(String, f64)> {
        let mut m: HashMap<&str, f64> = HashMap::new();
        for c in &self.cells {
            let name = self.top_level_block_name(c.block);
            *m.entry(name).or_insert(0.0) += self.tech.params(c.kind).area_um2;
        }
        let mut v: Vec<(String, f64)> = m.into_iter().map(|(k, a)| (k.to_owned(), a)).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// All DFF cells.
    pub fn dffs(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::Dff)
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Number of DFF cells.
    pub fn dff_count(&self) -> usize {
        self.dffs().count()
    }

    /// Computes a topological order of the *combinational* cells.
    /// DFFs are excluded (their outputs are sources, their inputs sinks).
    ///
    /// The order is served from the cached [`Levelization`] (cells sorted
    /// by logic level, then by index), so repeated calls after the netlist
    /// is built are cheap.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// logic contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        self.levelization().map(|lev| lev.order().to_vec())
    }

    /// The cached levelization: topological order, per-cell logic levels
    /// and the net→fanout CSR. Computed on first use and invalidated by
    /// any structural mutation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// logic contains a cycle.
    pub fn levelization(&self) -> Result<&Levelization, NetlistError> {
        match self.topo.get_or_init(|| self.compute_levelization()) {
            Ok(lev) => Ok(lev),
            Err(e) => Err(e.clone()),
        }
    }

    /// The netlist lowered to a [`CompiledNetlist`]: compiled on first
    /// use, then shared by every compiled simulator over this netlist,
    /// and dropped with the levelization by any structural mutation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational
    /// logic contains a cycle.
    pub fn compiled(&self) -> Result<&CompiledNetlist, NetlistError> {
        match self.program.get_or_init(|| CompiledNetlist::compile(self)) {
            Ok(prog) => Ok(prog),
            Err(e) => Err(e.clone()),
        }
    }

    /// Drops the cached levelization and compiled program.
    fn drop_cached_views(&mut self) {
        if self.topo.get().is_some() {
            self.topo = OnceLock::new();
        }
        if self.program.get().is_some() {
            self.program = OnceLock::new();
        }
    }

    fn compute_levelization(&self) -> Result<Levelization, NetlistError> {
        let n = self.cells.len();
        let nets = self.drivers.len();

        // CSR net → combinational fanout cells, deduplicated per cell.
        // Counting pass, prefix sum, fill pass: iterating cells in
        // ascending order keeps each net's slice sorted ascending. A
        // second CSR keeps *all* sinks (DFFs included) for static
        // analysis; see [`Levelization::consumers_of`].
        let mut fanout_offsets = vec![0u32; nets + 1];
        let mut sink_offsets = vec![0u32; nets + 1];
        for c in &self.cells {
            let (ins, len) = c.distinct_inputs();
            for &inp in &ins[..len] {
                sink_offsets[inp.index() + 1] += 1;
                if c.kind != CellKind::Dff {
                    fanout_offsets[inp.index() + 1] += 1;
                }
            }
        }
        for i in 0..nets {
            fanout_offsets[i + 1] += fanout_offsets[i];
            sink_offsets[i + 1] += sink_offsets[i];
        }
        let mut fanout_cells = vec![0u32; fanout_offsets[nets] as usize];
        let mut sink_cells = vec![0u32; sink_offsets[nets] as usize];
        let mut cursor: Vec<u32> = fanout_offsets[..nets].to_vec();
        let mut sink_cursor: Vec<u32> = sink_offsets[..nets].to_vec();
        // in-degree = number of distinct input nets driven by comb cells
        let mut indeg = vec![0u32; n];
        for (i, c) in self.cells.iter().enumerate() {
            let (ins, len) = c.distinct_inputs();
            for &inp in &ins[..len] {
                sink_cells[sink_cursor[inp.index()] as usize] = i as u32;
                sink_cursor[inp.index()] += 1;
            }
            if c.kind == CellKind::Dff {
                continue;
            }
            for &inp in &ins[..len] {
                fanout_cells[cursor[inp.index()] as usize] = i as u32;
                cursor[inp.index()] += 1;
                if let Driver::Cell(src) = self.drivers[inp.index()] {
                    if self.cells[src.index()].kind != CellKind::Dff {
                        indeg[i] += 1;
                    }
                }
            }
        }

        // Kahn's algorithm; levels finalize when a cell is popped because
        // all its combinational fanins are already done.
        let mut level = vec![0u32; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut stack: Vec<u32> = (0..n as u32)
            .filter(|&i| self.cells[i as usize].kind != CellKind::Dff && indeg[i as usize] == 0)
            .collect();
        let mut max_level = 0u32;
        while let Some(i) = stack.pop() {
            let c = &self.cells[i as usize];
            let mut lv = 0u32;
            for &inp in &c.inputs[..c.kind.arity()] {
                if let Driver::Cell(src) = self.drivers[inp.index()] {
                    if self.cells[src.index()].kind != CellKind::Dff {
                        lv = lv.max(level[src.index()] + 1);
                    }
                }
            }
            level[i as usize] = lv;
            max_level = max_level.max(lv);
            order.push(i);
            let lo = fanout_offsets[c.output.index()] as usize;
            let hi = fanout_offsets[c.output.index() + 1] as usize;
            for &j in &fanout_cells[lo..hi] {
                indeg[j as usize] -= 1;
                if indeg[j as usize] == 0 {
                    stack.push(j);
                }
            }
        }
        let comb_count = self
            .cells
            .iter()
            .filter(|c| c.kind != CellKind::Dff)
            .count();
        if order.len() != comb_count {
            // Find a cell still blocked to report.
            let blocked = (0..n)
                .find(|&i| self.cells[i].kind != CellKind::Dff && indeg[i] > 0)
                .expect("cycle implies a blocked cell");
            return Err(NetlistError::CombinationalCycle(CellId(blocked as u32)));
        }
        order.sort_unstable_by_key(|&i| (level[i as usize], i));
        Ok(Levelization {
            order: order.into_iter().map(CellId).collect(),
            level,
            max_level,
            fanout_offsets,
            fanout_cells,
            sink_offsets,
            sink_cells,
        })
    }

    /// Every reference to a net this netlist never allocated — cell input
    /// pins first (in cell order), then output-bus bits. Within one
    /// netlist every allocated net has a driver by construction, so a hit
    /// here means a [`NetId`] produced by a *different* netlist leaked in.
    ///
    /// Both [`Netlist::check`] and the `mfm-lint` hygiene pass report
    /// through this single routine.
    pub fn undriven_refs(&self) -> Vec<UndrivenRef> {
        let nets = self.drivers.len();
        let mut refs = Vec::new();
        for (i, c) in self.cells.iter().enumerate() {
            for (pin, &inp) in c.inputs[..c.kind.arity()].iter().enumerate() {
                if inp.index() >= nets {
                    refs.push(UndrivenRef::CellInput {
                        cell: CellId(i as u32),
                        pin,
                        net: inp,
                    });
                }
            }
        }
        for (name, bus) in &self.output_buses {
            for (bit, &net) in bus.iter().enumerate() {
                if net.index() >= nets {
                    refs.push(UndrivenRef::OutputBus {
                        name: name.clone(),
                        bit,
                        net,
                    });
                }
            }
        }
        refs
    }

    /// Rewires one input pin of an existing cell to another net,
    /// invalidating the cached levelization.
    ///
    /// This is an ECO-style structural edit. Its main use in this
    /// repository is *seeding defects for the lint test-suite* — wiring a
    /// cross-lane operand bit into a blanking gate, closing a
    /// combinational loop — so every `mfm-lint` rule can be shown to fire
    /// on a netlist that actually contains its defect.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is not below the cell's arity.
    pub fn rewire_input(&mut self, cell: CellId, pin: usize, net: NetId) {
        let arity = self.cells[cell.index()].kind.arity();
        assert!(pin < arity, "pin {pin} out of range for arity {arity}");
        self.drop_cached_views();
        // A rewired inverter or flop no longer computes what its cache
        // entry promised; drop all memoized cells.
        self.inv_cache.clear();
        self.dff_cache.clear();
        let c = &mut self.cells[cell.index()];
        // Unused trailing slots mirror pin 0 (see `Cell::inputs`); keep
        // that invariant when pin 0 itself is rewired.
        if pin == 0 {
            for slot in arity..4 {
                if c.inputs[slot] == c.inputs[0] {
                    c.inputs[slot] = net;
                }
            }
        }
        c.inputs[pin] = net;
    }

    /// Validates the netlist: acyclic combinational logic and fully driven
    /// nets — on *every* cell input pin, not only the output buses.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn check(&self) -> Result<(), NetlistError> {
        if let Some(r) = self.undriven_refs().into_iter().next() {
            return Err(match r {
                UndrivenRef::CellInput { cell, net, .. } => {
                    NetlistError::UndrivenCellInput(cell, net)
                }
                UndrivenRef::OutputBus { name, net, .. } => NetlistError::UndrivenOutput(name, net),
            });
        }
        self.topo_order()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Netlist {
        Netlist::new(TechLibrary::cmos45lp())
    }

    #[test]
    fn constant_folding_and() {
        let mut n = fresh();
        let a = n.input("a");
        let zero = n.zero();
        let one = n.one();
        assert_eq!(n.and2(a, zero), n.zero());
        assert_eq!(n.and2(a, one), a);
        assert_eq!(n.and2(a, a), a);
        assert_eq!(n.cell_count(), 0, "all folded");
        let b = n.input("b");
        let _ = n.and2(a, b);
        assert_eq!(n.cell_count(), 1);
    }

    #[test]
    fn constant_folding_xor_mux_maj() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let one = n.one();
        let zero = n.zero();
        assert_eq!(n.xor2(a, zero), a);
        assert_eq!(n.xor2(a, a), n.zero());
        assert_eq!(n.mux2(zero, a, b), a);
        assert_eq!(n.mux2(one, a, b), b);
        assert_eq!(n.mux2(a, zero, one), a);
        // maj3 with one constant collapses to and/or
        let m0 = n.maj3(a, b, zero);
        let m1 = n.maj3(a, b, one);
        assert!(n.const_value(m0).is_none());
        assert!(n.const_value(m1).is_none());
        assert_eq!(n.count_by_kind().get(&CellKind::Maj3), None);
    }

    #[test]
    fn block_attribution() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        n.begin_block("PPGEN");
        let x = n.xor2(a, b);
        n.begin_block("row0");
        let _y = n.and2(x, a);
        n.end_block();
        n.end_block();
        let _z = n.or2(x, a);
        assert_eq!(n.block_count(), 3);
        let areas = n.area_by_block();
        let names: Vec<&str> = areas.iter().map(|(s, _)| s.as_str()).collect();
        assert!(names.contains(&"PPGEN"));
        assert!(names.contains(&"TOP"));
        // Nested block rolls up to its top-level parent.
        assert!(!names.contains(&"row0"));
        assert_eq!(n.block_name(BlockId(2)), "PPGEN/row0");
    }

    #[test]
    fn topo_order_covers_all_comb_cells() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let (s, c) = n.full_adder(a, b, n.zero());
        let q = n.dff(s);
        let _t = n.and2(q, c);
        let order = n.topo_order().unwrap();
        let comb = n.cells().iter().filter(|c| c.kind != CellKind::Dff).count();
        assert_eq!(order.len(), comb);
    }

    #[test]
    fn compiled_program_is_cached_until_the_netlist_changes() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and2(a, b);
        let first: *const CompiledNetlist = n.compiled().unwrap();
        assert!(
            std::ptr::eq(first, n.compiled().unwrap()),
            "served from cache"
        );
        assert_eq!(n.compiled().unwrap().op_count(), 1);
        let z = n.xor2(y, a);
        assert_eq!(n.compiled().unwrap().op_count(), 2, "a new gate drops it");
        // Closing a loop through a rewire drops it too.
        let cell = CellId(n.cell_count() as u32 - 1);
        n.rewire_input(cell, 1, z);
        assert!(n.compiled().is_err());
    }

    #[test]
    fn compiling_a_fresh_netlist_leaves_it_unlevelized() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let (s, c) = n.full_adder(a, b, n.zero());
        let q = n.dff(s);
        let t = n.and2(q, c);
        n.output_bus("t", &[t]);
        assert_eq!(n.compiled().unwrap().op_count(), 3);
        assert!(n.topo.get().is_none(), "compiling levelized the netlist");
        n.levelization().unwrap();
        assert!(n.topo.get().is_some());
    }

    #[test]
    fn check_passes_for_valid_netlist() {
        let mut n = fresh();
        let a = n.input_bus("a", 2);
        let s = n.xor2(a[0], a[1]);
        n.output_bus("s", &[s]);
        assert!(n.check().is_ok());
    }

    #[test]
    fn area_accounting() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let _x = n.xor2(a, b);
        let _y = n.nand2(a, b);
        let tech = TechLibrary::cmos45lp();
        let expect = tech.params(CellKind::Xor2).area_um2 + tech.params(CellKind::Nand2).area_um2;
        assert!((n.area_um2() - expect).abs() < 1e-9);
        assert!(n.area_nand2() > 0.0);
    }

    #[test]
    fn full_adder_truth_table_via_structure() {
        // Structural spot-check without a simulator: the nets exist and the
        // cell kinds are as expected.
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let cin = n.input("cin");
        let (_s, _c) = n.full_adder(a, b, cin);
        let kinds = n.count_by_kind();
        assert_eq!(kinds[&CellKind::Xor2], 2);
        assert_eq!(kinds[&CellKind::Maj3], 1);
    }

    #[test]
    fn dff_bus_and_counts() {
        let mut n = fresh();
        let a = n.input_bus("a", 8);
        let q = n.dff_bus(&a);
        assert_eq!(q.len(), 8);
        assert_eq!(n.dff_count(), 8);
    }
}
