//! Differential tests of the timing-wheel settle loop against a reference
//! kernel: the straightforward binary-heap inertial-delay loop the
//! simulator's results are defined by. Both kernels take the same
//! stimulus, and after every step values, toggles, events, cycles, the
//! clock, the committed count and the full trace must agree exactly.

use super::{ActiveFault, Simulator, Time, TIME_SCALE};
use crate::netlist::{Driver, NetId, Netlist};
use crate::tech::{CellKind, TechLibrary};
use mfm_prng::Rng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// The reference kernel: every re-evaluation is scheduled and every
/// pending event waits in one binary heap ordered by `(due, seq)`.
struct HeapSim<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
    heap: BinaryHeap<Reverse<(Time, u64, u32, bool)>>,
    seq: u64,
    now: Time,
    toggles: Vec<u64>,
    newest: Vec<u64>,
    delays: Vec<Time>,
    dff_cells: Vec<u32>,
    cycles: u64,
    events: u64,
    trace: Vec<crate::trace::TraceEvent>,
    faults: BTreeMap<u32, ActiveFault>,
    zero_delay: bool,
}

impl<'a> HeapSim<'a> {
    fn new(netlist: &'a Netlist) -> Self {
        let lev = netlist.levelization().expect("acyclic");
        let mut sim = HeapSim {
            netlist,
            values: vec![false; netlist.net_count()],
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            toggles: vec![0; netlist.net_count()],
            newest: vec![0; netlist.net_count()],
            delays: netlist
                .cells()
                .iter()
                .map(|c| (netlist.tech().params(c.kind).delay_ps * TIME_SCALE).round() as Time)
                .collect(),
            dff_cells: (0..netlist.cell_count() as u32)
                .filter(|&i| netlist.cells()[i as usize].kind == CellKind::Dff)
                .collect(),
            cycles: 0,
            events: 0,
            trace: Vec::new(),
            faults: BTreeMap::new(),
            zero_delay: false,
        };
        sim.values[netlist.one().index()] = true;
        for &cell_id in lev.order() {
            let out = netlist.cells()[cell_id.index()].output;
            sim.values[out.index()] = sim.eval_cell(cell_id.index());
        }
        sim
    }

    fn eval_cell(&self, idx: usize) -> bool {
        let cell = &self.netlist.cells()[idx];
        let v = |i: usize| self.values[cell.inputs[i].index()];
        cell.kind.eval(v(0), v(1), v(2), v(3))
    }

    fn driven_value(&self, net: NetId, event_val: bool) -> bool {
        match self.netlist.driver(net) {
            Driver::Cell(c) => self.eval_cell(c.index()),
            Driver::Const0 => false,
            Driver::Const1 => true,
            Driver::Input => event_val,
        }
    }

    fn schedule(&mut self, at: Time, net: NetId, value: bool) {
        self.seq += 1;
        self.newest[net.index()] = self.seq;
        self.heap.push(Reverse((at, self.seq, net.0, value)));
    }

    fn set_bus(&mut self, bus: &[NetId], value: u128) {
        for (i, &net) in bus.iter().enumerate() {
            self.schedule(self.now, net, (value >> i) & 1 == 1);
        }
    }

    fn inject_stuck_at(&mut self, net: NetId, value: bool) {
        let fault = ActiveFault {
            forced: value,
            expires: None,
        };
        self.faults.insert(net.0, fault);
        self.schedule(self.now, net, value);
    }

    fn inject_transient(&mut self, net: NetId, width_ps: f64) {
        let width = ((width_ps * TIME_SCALE).round() as Time).max(1);
        let flipped = !self.values[net.index()];
        let expires = self.now + width;
        let fault = ActiveFault {
            forced: flipped,
            expires: Some(expires),
        };
        self.faults.insert(net.0, fault);
        self.schedule(self.now, net, flipped);
        self.schedule(expires, net, flipped);
    }

    fn clear_fault(&mut self, net: NetId) {
        if self.faults.remove(&net.0).is_some() {
            let v = self.driven_value(net, self.values[net.index()]);
            self.schedule(self.now, net, v);
        }
    }

    fn clear_faults(&mut self) {
        let nets: Vec<u32> = self.faults.keys().copied().collect();
        for ni in nets {
            self.clear_fault(NetId(ni));
        }
    }

    fn commit(&mut self, t: Time, net: u32, val: bool) -> bool {
        let ni = net as usize;
        if self.values[ni] == val {
            return false;
        }
        self.values[ni] = val;
        self.toggles[ni] += 1;
        self.trace.push((t, net, val));
        true
    }

    fn settle_zero_delay(&mut self) -> u64 {
        let mut committed = 0;
        let mut pending: Vec<(u64, u32, bool)> = Vec::new();
        while let Some(Reverse((_, seq, net, val))) = self.heap.pop() {
            pending.push((seq, net, val));
        }
        pending.sort_unstable();
        for (seq, net, mut val) in pending {
            if let Some(f) = self.faults.get(&net) {
                val = f.forced;
            } else if self.newest[net as usize] != seq {
                continue;
            }
            committed += self.commit(self.now, net, val) as u64;
        }
        let lev = self.netlist.levelization().expect("acyclic");
        for &cell_id in lev.order() {
            let out = self.netlist.cells()[cell_id.index()].output;
            let v = match self.faults.get(&out.0) {
                Some(f) => f.forced,
                None => self.eval_cell(cell_id.index()),
            };
            committed += self.commit(self.now, out.0, v) as u64;
        }
        self.events += committed;
        committed
    }

    fn settle(&mut self) -> u64 {
        if self.zero_delay {
            return self.settle_zero_delay();
        }
        let lev = self.netlist.levelization().expect("acyclic");
        let mut committed = 0u64;
        let mut touched: Vec<u32> = Vec::new();
        let mut affected: Vec<u32> = Vec::new();
        while let Some(&Reverse((t, _, _, _))) = self.heap.peek() {
            self.now = t;
            touched.clear();
            while let Some(&Reverse((t2, seq, net, val))) = self.heap.peek() {
                if t2 != t {
                    break;
                }
                self.heap.pop();
                let mut val = val;
                if let Some(&f) = self.faults.get(&net) {
                    if f.expires.is_some_and(|e| t2 >= e) {
                        self.faults.remove(&net);
                        val = self.driven_value(NetId(net), val);
                    } else {
                        val = f.forced;
                    }
                } else if self.newest[net as usize] != seq {
                    continue;
                }
                if self.commit(t, net, val) {
                    committed += 1;
                    touched.push(net);
                }
            }
            affected.clear();
            for &net in &touched {
                affected.extend_from_slice(lev.fanout_of(NetId(net)));
            }
            affected.sort_unstable();
            affected.dedup();
            for &ci in &affected {
                let out_net = self.netlist.cells()[ci as usize].output;
                let new_val = self.eval_cell(ci as usize);
                self.schedule(t + self.delays[ci as usize], out_net, new_val);
            }
        }
        self.events += committed;
        committed
    }

    fn step_cycle(&mut self, inputs: &[(&[NetId], u128)]) -> u64 {
        let sampled: Vec<(u32, bool)> = self
            .dff_cells
            .iter()
            .map(|&ci| {
                let cell = &self.netlist.cells()[ci as usize];
                (ci, self.values[cell.inputs[0].index()])
            })
            .collect();
        let edge = self.now;
        for (ci, d) in sampled {
            let out = self.netlist.cells()[ci as usize].output;
            self.schedule(edge + self.delays[ci as usize], out, d);
        }
        for (bus, value) in inputs {
            self.set_bus(bus, *value);
        }
        self.cycles += 1;
        self.settle()
    }
}

/// Both kernels over one netlist, driven in lockstep.
struct Pair<'a> {
    wheel: Simulator<'a>,
    heap: HeapSim<'a>,
    step: usize,
}

impl<'a> Pair<'a> {
    fn new(n: &'a Netlist) -> Self {
        let mut wheel = Simulator::new(n);
        wheel.enable_trace();
        Pair {
            wheel,
            heap: HeapSim::new(n),
            step: 0,
        }
    }

    /// Asserts every observable of the two kernels is equal.
    fn check(&mut self, what: &str) {
        self.step += 1;
        let (w, h) = (&self.wheel, &self.heap);
        let at = format!("step {} ({what})", self.step);
        assert_eq!(w.values, h.values, "values after {at}");
        assert_eq!(w.toggles, h.toggles, "toggles after {at}");
        assert_eq!(w.events, h.events, "events after {at}");
        assert_eq!(w.cycles, h.cycles, "cycles after {at}");
        assert_eq!(w.now, h.now, "clock after {at}");
        assert_eq!(w.active_faults(), h.faults.len(), "faults after {at}");
        assert_eq!(w.trace().unwrap(), &h.trace[..], "trace after {at}");
    }

    fn settle(&mut self) {
        let (a, b) = (self.wheel.settle(), self.heap.settle());
        assert_eq!(a, b, "committed count of settle at step {}", self.step + 1);
        self.check("settle");
    }

    fn step_cycle(&mut self, inputs: &[(&[NetId], u128)]) {
        let (a, b) = (self.wheel.step_cycle(inputs), self.heap.step_cycle(inputs));
        assert_eq!(a, b, "committed count of cycle at step {}", self.step + 1);
        self.check("step_cycle");
    }

    fn set_bus(&mut self, bus: &[NetId], value: u128) {
        self.wheel.set_bus(bus, value);
        self.heap.set_bus(bus, value);
    }
}

/// A random netlist over every cell kind: `n_cells` cells drawing their
/// inputs from earlier nets (constants included, so fanout reconverges),
/// with a quarter of the DFFs rewired to a later net to close sequential
/// feedback loops. The library's delays are scaled at random too: to
/// zero (a one-bucket wheel), to a mix of zero- and one-tick cells, or
/// up to a wheel twice the default span.
pub(crate) fn random_netlist(
    rng: &mut Rng,
    n_inputs: usize,
    n_cells: usize,
) -> (Netlist, Vec<NetId>) {
    let scale = [1.0, 1.0, 0.0, 0.003, 0.05, 2.0][rng.range_u64(0, 6) as usize];
    let mut n = Netlist::new(TechLibrary::cmos45lp().with_delay_scale(scale));
    let inputs = n.input_bus("in", n_inputs);
    let mut nets: Vec<NetId> = vec![n.zero(), n.one()];
    nets.extend(&inputs);
    let mut dffs = Vec::new();
    for _ in 0..n_cells {
        let kind = CellKind::ALL[rng.range_u64(0, CellKind::ALL.len() as u64) as usize];
        // Bias picks toward recent nets so paths get deep.
        let ins: Vec<NetId> = (0..kind.arity())
            .map(|_| {
                let back = rng.range_u64(1, nets.len().min(12) as u64 + 1) as usize;
                if rng.next_bool(0.8) {
                    nets[nets.len() - back]
                } else {
                    nets[rng.range_u64(0, nets.len() as u64) as usize]
                }
            })
            .collect();
        if kind == CellKind::Dff {
            dffs.push(n.cell_count());
        }
        nets.push(n.cell(kind, &ins));
    }
    for &ci in &dffs {
        if rng.next_bool(0.25) {
            let late = nets[rng.range_u64(nets.len() as u64 / 2, nets.len() as u64) as usize];
            n.rewire_input(crate::netlist::CellId(ci as u32), 0, late);
        }
    }
    n.check().expect("combinationally acyclic");
    (n, inputs)
}

/// Drives both kernels through one random stimulus script.
fn run_script(rng: &mut Rng, n: &Netlist, inputs: &[NetId], steps: usize) {
    let mut p = Pair::new(n);
    let cells = n.cell_count() as u64;
    let mut transients = false;
    for _ in 0..steps {
        let value = rng.next_u64() as u128;
        match rng.range_u64(0, 16) {
            0..=3 => {
                // Repeated schedules of one input before a settle: only
                // the newest may land.
                for _ in 0..rng.range_u64(1, 4) {
                    p.set_bus(inputs, rng.next_u64() as u128);
                }
                p.settle();
            }
            4..=7 => p.step_cycle(&[(inputs, value)]),
            8 => {
                let net = n.cells()[rng.range_u64(0, cells) as usize].output;
                let v = rng.next_bool(0.5);
                p.wheel.inject_stuck_at(net, v);
                p.heap.inject_stuck_at(net, v);
                p.step_cycle(&[(inputs, value)]);
            }
            9 if !p.wheel.zero_delay() => {
                // Widths both inside and past the wheel's horizon; upsets
                // of equal width heal at the same tick.
                let width = if rng.next_bool(0.5) {
                    rng.range_u64(5, 150)
                } else {
                    rng.range_u64(250, 2_000)
                } as f64;
                for _ in 0..rng.range_u64(1, 4) {
                    let net = n.cells()[rng.range_u64(0, cells) as usize].output;
                    p.wheel.inject_transient(net, width);
                    p.heap.inject_transient(net, width);
                }
                transients = true;
                if rng.next_bool(0.5) {
                    p.set_bus(inputs, value);
                }
                p.settle();
            }
            10 => {
                p.wheel.clear_faults();
                p.heap.clear_faults();
                p.settle();
            }
            12 => {
                // Zero-delay mode is only defined without transients.
                if transients {
                    p.wheel.clear_faults();
                    p.heap.clear_faults();
                    p.settle();
                    transients = false;
                }
                let on = !p.wheel.zero_delay();
                p.wheel.set_zero_delay(on);
                p.heap.zero_delay = on;
                p.step_cycle(&[(inputs, value)]);
            }
            _ => {
                p.set_bus(inputs, value);
                p.settle();
            }
        }
        transients &= p.wheel.active_faults() > 0;
    }
}

#[test]
fn wheel_matches_heap_kernel_on_random_netlists_and_stimulus() {
    let mut rng = Rng::new(0x005E_ED17);
    let rounds = if cfg!(debug_assertions) { 24 } else { 96 };
    for round in 0..rounds {
        let n_inputs = rng.range_u64(2, 24) as usize;
        let n_cells = rng.range_u64(20, 400) as usize;
        let (n, inputs) = random_netlist(&mut rng, n_inputs, n_cells);
        let kinds: std::collections::HashSet<CellKind> = n.cells().iter().map(|c| c.kind).collect();
        if round == 0 {
            assert!(kinds.len() >= 15, "random netlists cover the cell kinds");
        }
        run_script(&mut rng, &n, &inputs, 60);
    }
}

#[test]
fn quiet_events_still_advance_the_clock() {
    // `y = a | 1` re-evaluates to the 1 it holds whenever `a` moves: the
    // one event of the pass that is left unscheduled. With zero cell
    // delays it is due at the tick that made it, and stays queued.
    for scale in [1.0, 0.0] {
        let mut n = Netlist::new(TechLibrary::cmos45lp().with_delay_scale(scale));
        let a = n.input("a");
        let one = n.one();
        n.cell(CellKind::Or2, &[a, one]);
        let mut p = Pair::new(&n);
        p.set_bus(&[a], 1);
        p.settle();
        assert_eq!(
            p.wheel.now > 0,
            scale > 0.0,
            "the clock ends at the quiet event's tick"
        );
    }
}

#[test]
fn upset_nets_keep_events_that_land_on_their_heal_tick() {
    // y = x ^ z with both inputs and y upset at once. z heals 57.6 ps
    // (one XOR delay) before x and y, after y's driver has scheduled a
    // 0 that y's fault absorbed, so the driver returns to y's forced
    // value exactly one delay before the heal tick. That event is not
    // quiet: x heals first at that tick, y heals to 0, and the event
    // then commits a 1 — a glitch both kernels must see.
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let a = n.input("a");
    let b = n.input("b");
    let x = n.buf(a);
    let z = n.buf(b);
    let y = n.xor2(x, z);
    let mut p = Pair::new(&n);
    p.wheel.inject_transient(x, 157.6);
    p.heap.inject_transient(x, 157.6);
    p.wheel.inject_transient(z, 100.0);
    p.heap.inject_transient(z, 100.0);
    p.wheel.inject_transient(y, 157.6);
    p.heap.inject_transient(y, 157.6);
    p.settle();
    assert_eq!(
        p.wheel.toggles()[y.index()],
        4,
        "y: upset, heal, glitch up and down"
    );
}

#[test]
fn transient_past_the_horizon_heals_on_time() {
    // A heal event far past the wheel waits in the overflow heap and is
    // merged with same-tick wheel events in schedule order.
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let a = n.input("a");
    let y = n.buf(a);
    let mut z = y;
    for _ in 0..40 {
        z = n.not(z);
        z = n.buf(z);
    }
    let mut p = Pair::new(&n);
    p.set_bus(&[a], 1);
    p.settle();
    for width in [204.7, 204.8, 204.9, 1_000.0, 5_000.0] {
        p.wheel.inject_transient(y, width);
        p.heap.inject_transient(y, width);
        p.settle();
        assert_eq!(p.wheel.active_faults(), 0);
    }
}

/// Rebuilds a netlist made by another copy of this crate (the unit
/// builders link the library build) cell for cell, so net ids coincide.
pub(crate) fn mirror(src: &mfm_gatesim::Netlist) -> Netlist {
    // The driving cell per net; primary inputs have none.
    let mut driver = vec![None; src.net_count()];
    for cell in src.cells() {
        driver[cell.output.index()] = Some(cell);
    }
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    for (i, cell) in driver.iter().enumerate().skip(2) {
        let net = match cell {
            None => n.input("in"),
            Some(cell) => {
                let k = mfm_gatesim::CellKind::ALL
                    .iter()
                    .position(|&k| k == cell.kind);
                let kind = CellKind::ALL[k.unwrap()];
                let ins: Vec<NetId> = cell.inputs[..kind.arity()]
                    .iter()
                    .map(|x| NetId(x.index() as u32))
                    .collect();
                n.cell(kind, &ins)
            }
        };
        assert_eq!(net.index(), i, "net ids line up");
    }
    n
}

#[test]
fn wheel_matches_heap_kernel_on_the_combinational_unit() {
    use mfmult::{Format, Operation};
    let mut src = mfm_gatesim::Netlist::new(mfm_gatesim::TechLibrary::cmos45lp());
    let ports = mfmult::structural::build_unit_quad(&mut src);
    let n = mirror(&src);
    let bus = |b: &[mfm_gatesim::NetId]| {
        b.iter()
            .map(|x| NetId(x.index() as u32))
            .collect::<Vec<_>>()
    };
    let (frmt, xa, yb) = (bus(&ports.frmt), bus(&ports.xa), bus(&ports.yb));
    let mut p = Pair::new(&n);
    let mut rng = Rng::new(2017);
    for format in Format::ALL {
        for _ in 0..8 {
            let op = Operation {
                format,
                xa: rng.next_u64(),
                yb: rng.next_u64(),
            };
            p.set_bus(&frmt, op.format.encoding() as u128);
            p.set_bus(&xa, op.xa as u128);
            p.set_bus(&yb, op.yb as u128);
            p.settle();
        }
    }
    assert!(p.wheel.total_events() > 1000, "the unit glitches");
}

#[test]
fn wheel_matches_heap_kernel_on_the_pipelined_unit() {
    // The Fig. 5 unit is the one the power tables and the glitch
    // calibration clock: its registers, reconvergent trees and the
    // bitset affected set see here the fan-out the random netlists lack.
    use mfmult::pipeline::{build_pipelined_unit, PipelinePlacement};
    use mfmult::Format;
    let mut src = mfm_gatesim::Netlist::new(mfm_gatesim::TechLibrary::cmos45lp());
    let ports = build_pipelined_unit(&mut src, PipelinePlacement::Fig5);
    let n = mirror(&src);
    let bus = |b: &[mfm_gatesim::NetId]| {
        b.iter()
            .map(|x| NetId(x.index() as u32))
            .collect::<Vec<_>>()
    };
    let (frmt, xa, yb, ph) = (
        bus(&ports.frmt),
        bus(&ports.xa),
        bus(&ports.yb),
        bus(&ports.ph),
    );
    let mut p = Pair::new(&n);
    let mut rng = Rng::new(0x0F16_0005);
    let cycle = |p: &mut Pair<'_>, format: Format, rng: &mut Rng| {
        let (x, y) = (rng.next_u64() as u128, rng.next_u64() as u128);
        p.step_cycle(&[(&frmt, format.encoding() as u128), (&xa, x), (&yb, y)]);
    };
    for format in Format::ALL {
        for _ in 0..8 {
            cycle(&mut p, format, &mut rng);
        }
    }
    assert!(p.wheel.total_events() > 10_000, "the unit glitches");
    // A stuck-at inside the unit, forced against its current value, and
    // an upset on an output net whose heal event lies past the wheel's
    // horizon; both run through cycles, then the faults are cleared.
    let stuck = n.cells()[n.cell_count() / 3].output;
    let forced = !p.wheel.read_net(stuck);
    p.wheel.inject_stuck_at(stuck, forced);
    p.heap.inject_stuck_at(stuck, forced);
    cycle(&mut p, Format::Binary64, &mut rng);
    cycle(&mut p, Format::Binary64, &mut rng);
    let upset = ph[17];
    p.wheel.inject_transient(upset, 300.0);
    p.heap.inject_transient(upset, 300.0);
    cycle(&mut p, Format::Int64, &mut rng);
    assert_eq!(
        p.wheel.active_faults(),
        1,
        "the upset healed, the stuck-at holds"
    );
    p.wheel.clear_faults();
    p.heap.clear_faults();
    for _ in 0..4 {
        cycle(&mut p, Format::DualBinary32, &mut rng);
    }
    assert_eq!(p.wheel.active_faults(), 0);
}
