//! Event-driven gate-level simulation with inertial delays.
//!
//! The simulator propagates value changes through the netlist with each
//! cell's real propagation delay, so transient *glitches* — multiple
//! transitions of one net within a single evaluation — are simulated and
//! counted. Glitch activity is what differentiates the power of the
//! combinational and pipelined multipliers in the paper's Table III, so
//! this fidelity is essential.
//!
//! Delays are **inertial**: when a cell re-evaluates while an output
//! change is still pending (i.e. within one propagation delay), the new
//! schedule cancels the pending one — pulses narrower than the cell delay
//! are filtered, exactly as a real gate's output capacitance filters them.
//! A pure transport-delay model would propagate arbitrarily narrow pulses
//! and grossly overestimate glitch power.
//!
//! Two usage patterns:
//!
//! - **Combinational**: [`Simulator::set_bus`] + [`Simulator::settle`] per
//!   input vector; every vector counts as one operation.
//! - **Sequential**: [`Simulator::step_cycle`] applies inputs, clocks all
//!   DFFs once and settles; registered values move one stage per call.
//!
//! Pending events live on a timing wheel (`EventQueue`): one bucket
//! per tick of a horizon longer than the slowest cell, so every event a
//! settle schedules lands in a bucket and timestamps are visited in
//! order without a heap. A re-evaluation that yields the value its output
//! already holds, with nothing pending on that net, schedules nothing: such
//! an event could never commit, and settles never see a difference.

use crate::netlist::{Driver, Levelization, NetId, Netlist};
use crate::tech::CellKind;
use mfm_telemetry::{Counter, Histogram, Registry};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

#[cfg(test)]
pub(crate) mod reference;

/// Time is tracked in tenths of picoseconds to keep event ordering exact.
type Time = u64;

const TIME_SCALE: f64 = 10.0; // ticks per picosecond

/// Telemetry handles held by an instrumented simulator (see
/// [`Simulator::attach_telemetry`]). When absent, the hot loop pays a
/// single `Option` branch per settle — nothing else.
#[derive(Debug)]
struct SimTelemetry {
    /// `sim.settles` — settle passes completed.
    settles: Counter,
    /// `sim.events` — committed transitions (includes glitches).
    events: Counter,
    /// `sim.cycles` — clock edges issued.
    cycles: Counter,
    /// `sim.settle_events` — committed transitions per settle pass.
    settle_events: Histogram,
    /// Settles per per-block toggle-accumulation window.
    window: u64,
    /// Settles seen since the last window flush.
    settles_in_window: u64,
    /// `sim.block_toggles.<BLOCK>` counters, indexed by block slot.
    block_toggles: Vec<Counter>,
    /// Top-level block slot per net (`u32::MAX` for input/const nets).
    net_block: Vec<u32>,
    /// Toggle snapshot at the last window flush.
    last_toggles: Vec<u64>,
}

impl SimTelemetry {
    /// Accumulates per-block toggle deltas since the last flush into
    /// the `sim.block_toggles.*` counters and rebases the snapshot.
    fn flush_blocks(&mut self, toggles: &[u64]) {
        self.settles_in_window = 0;
        let mut per_block = vec![0u64; self.block_toggles.len()];
        for (ni, (&now, last)) in toggles.iter().zip(self.last_toggles.iter_mut()).enumerate() {
            // `saturating_sub` guards against a snapshot staled by
            // `reset_activity` (which rebases the snapshot itself).
            let delta = now.saturating_sub(*last);
            *last = now;
            if delta != 0 {
                let slot = self.net_block[ni];
                if slot != u32::MAX {
                    per_block[slot as usize] += delta;
                }
            }
        }
        for (counter, n) in self.block_toggles.iter().zip(per_block) {
            if n != 0 {
                counter.add(n);
            }
        }
    }
}

/// A fault overlaid on one net (see [`Simulator::inject_stuck_at`] and
/// [`Simulator::inject_transient`]).
#[derive(Debug, Clone, Copy)]
struct ActiveFault {
    /// The value the net is forced to while the fault is active.
    forced: bool,
    /// Tick at which a transient fault heals; `None` for stuck-at faults.
    expires: Option<Time>,
}

/// End-of-list link in the event slab.
const NIL: u32 = u32::MAX;

/// One pending event in the slab.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Schedule order: events due at one tick commit in this order.
    seq: u64,
    /// The net index shifted left once, the scheduled value in bit 0.
    net_val: u32,
    /// The next event in the same bucket (or in the free list).
    next: u32,
}

/// Pending events, ordered by `(due tick, schedule order)`.
///
/// A timing wheel: bucket `at & mask` holds, in schedule order, the
/// events due at `at`. The wheel spans more ticks than the slowest cell
/// delay, and every event it holds is due within one span of the
/// simulator's clock, so a bucket never mixes two timestamps and the
/// next timestamp is the first occupied bucket after the clock. Events
/// due past that horizon (long transient heal events) wait in a small
/// overflow heap and are merged in by schedule order when their tick
/// comes. All buckets share one slab with a free list, so the queue's
/// memory is bounded by the peak number of pending events, not by the
/// busiest bucket ever seen.
#[derive(Debug)]
struct EventQueue {
    slab: Vec<Event>,
    /// Head of the free list threaded through `slab`.
    free: u32,
    /// First and last event per bucket (`NIL` when empty).
    head: Vec<u32>,
    tail: Vec<u32>,
    /// One bit per non-empty bucket.
    occupied: Vec<u64>,
    /// Bucket count minus one (the bucket count is a power of two).
    mask: Time,
    /// Events due at least one wheel span after the clock, as
    /// `(due, seq, net, value)`.
    overflow: BinaryHeap<Reverse<(Time, u64, u32, bool)>>,
}

impl EventQueue {
    /// A queue whose wheel covers every delay up to `horizon` ticks.
    fn new(horizon: Time) -> Self {
        let buckets = (horizon + 1).next_power_of_two() as usize;
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            head: vec![NIL; buckets],
            tail: vec![NIL; buckets],
            occupied: vec![0; buckets.div_ceil(64)],
            mask: buckets as Time - 1,
            overflow: BinaryHeap::new(),
        }
    }

    /// Queues `value` for `net` at tick `at`, which must not precede the
    /// clock `now`.
    fn push(&mut self, now: Time, at: Time, seq: u64, net: u32, value: bool) {
        debug_assert!(at >= now, "event scheduled in the past");
        if at - now > self.mask {
            self.overflow.push(Reverse((at, seq, net, value)));
            return;
        }
        let ev = Event {
            seq,
            net_val: net << 1 | value as u32,
            next: NIL,
        };
        let idx = if self.free == NIL {
            self.slab.push(ev);
            (self.slab.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = ev;
            idx
        };
        let b = (at & self.mask) as usize;
        if self.head[b] == NIL {
            self.head[b] = idx;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.slab[self.tail[b] as usize].next = idx;
        }
        self.tail[b] = idx;
    }

    /// The earliest tick with a pending event, given the clock `now`.
    fn next_time(&self, now: Time) -> Option<Time> {
        let start = (now & self.mask) as usize;
        let (sw, sb) = (start / 64, start % 64);
        let words = self.occupied.len();
        // Scan forward from the clock's bucket, wrapping once. The start
        // word's bits from the clock on are empty by the time it comes
        // round again, so the revisit sees only buckets before the clock.
        let mut bucket = None;
        let first = self.occupied[sw] & (!0u64 << sb);
        if first != 0 {
            bucket = Some(sw * 64 + first.trailing_zeros() as usize);
        } else {
            for i in 1..=words {
                let wi = (sw + i) % words;
                let w = self.occupied[wi];
                if w != 0 {
                    bucket = Some(wi * 64 + w.trailing_zeros() as usize);
                    break;
                }
            }
        }
        let wheel = bucket.map(|b| now + ((b as Time).wrapping_sub(start as Time) & self.mask));
        let over = self.overflow.peek().map(|Reverse((at, ..))| *at);
        match (wheel, over) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (w, o) => w.or(o),
        }
    }

    /// Unlinks the bucket due at `at` and returns its first event, to be
    /// walked with [`EventQueue::pop_at`].
    fn take_bucket(&mut self, at: Time) -> u32 {
        let b = (at & self.mask) as usize;
        let first = std::mem::replace(&mut self.head[b], NIL);
        self.occupied[b / 64] &= !(1 << (b % 64));
        first
    }

    /// The next event due at `at` in schedule order, as `(seq, net,
    /// value)`: the earlier of the walked bucket's `cursor` event and the
    /// overflow's first event at `at`. Walked events are freed.
    fn pop_at(&mut self, at: Time, cursor: &mut u32) -> Option<(u64, u32, bool)> {
        let over = match self.overflow.peek() {
            Some(&Reverse((t, seq, net, value))) if t == at => Some((seq, net, value)),
            _ => None,
        };
        if *cursor != NIL {
            let idx = *cursor;
            let ev = self.slab[idx as usize];
            if over.is_none_or(|(seq, ..)| ev.seq < seq) {
                *cursor = ev.next;
                self.slab[idx as usize].next = self.free;
                self.free = idx;
                return Some((ev.seq, ev.net_val >> 1, ev.net_val & 1 == 1));
            }
        }
        if over.is_some() {
            self.overflow.pop();
        }
        over
    }

    /// Removes every pending event, appending each as `(seq, net,
    /// value)` to `out` in no particular order.
    fn drain_into(&mut self, out: &mut Vec<(u64, u32, bool)>) {
        for wi in 0..self.occupied.len() {
            let mut w = self.occupied[wi];
            while w != 0 {
                let b = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let mut idx = self.head[b];
                while idx != NIL {
                    let ev = self.slab[idx as usize];
                    out.push((ev.seq, ev.net_val >> 1, ev.net_val & 1 == 1));
                    idx = ev.next;
                }
            }
        }
        out.extend(
            self.overflow
                .drain()
                .map(|Reverse((_, seq, net, value))| (seq, net, value)),
        );
        self.clear();
    }

    /// Drops every pending event.
    fn clear(&mut self) {
        for wi in 0..self.occupied.len() {
            let mut w = std::mem::take(&mut self.occupied[wi]);
            while w != 0 {
                self.head[wi * 64 + w.trailing_zeros() as usize] = NIL;
                w &= w - 1;
            }
        }
        self.slab.clear();
        self.free = NIL;
        self.overflow.clear();
    }
}

/// An event-driven two-valued simulator over a [`Netlist`].
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    values: Vec<bool>,
    /// Shared levelization: topo order + CSR net→fanout map, borrowed
    /// from the netlist's cache (computed once per netlist, not per
    /// simulator).
    lev: &'a Levelization,
    queue: EventQueue,
    seq: u64,
    now: Time,
    /// Output transitions per net since the last [`Simulator::reset_activity`].
    toggles: Vec<u64>,
    /// Sequence number of the newest scheduled event per net; older
    /// pending events are stale (inertial cancellation).
    newest: Vec<u64>,
    /// Due tick of the newest scheduled event per net.
    due: Vec<Time>,
    /// Integer delay in ticks per cell kind (indexed by `CellKind::index`).
    delay: [Time; CellKind::ALL.len()],
    /// DFF cell indices, in instantiation order.
    dff_cells: Vec<u32>,
    /// Per-settle scratch: nets committed at the current tick, and the
    /// cells they feed. Kept to reuse their allocations.
    touched: Vec<u32>,
    affected: Vec<u32>,
    /// Per-cycle scratch: the D value each DFF samples at the clock edge.
    sampled: Vec<bool>,
    /// Clock cycles issued since the last reset.
    cycles: u64,
    /// Total committed events since the last reset (includes glitches).
    events: u64,
    /// Committed-transition recording for VCD export, when enabled.
    trace: Option<Vec<crate::trace::TraceEvent>>,
    /// Net values at the moment tracing was enabled.
    trace_initial: Vec<bool>,
    /// Faults overlaid on nets, keyed by net index. A `BTreeMap` keeps
    /// iteration (and thus event ordering on clear) deterministic.
    faults: BTreeMap<u32, ActiveFault>,
    /// When set, [`Simulator::settle`] runs the zero-delay semantics of
    /// [`Simulator::set_zero_delay`] instead of inertial-delay event
    /// propagation.
    zero_delay: bool,
    /// Metrics handles, when attached (see
    /// [`Simulator::attach_telemetry`]).
    telemetry: Option<SimTelemetry>,
}

impl<'a> Simulator<'a> {
    /// Builds a simulator and initializes every net to its settled value
    /// for all-zero inputs and all-zero register state.
    ///
    /// # Panics
    ///
    /// Panics if the netlist contains a combinational cycle (validate with
    /// [`Netlist::check`] first for a recoverable error).
    pub fn new(netlist: &'a Netlist) -> Self {
        let lev = netlist
            .levelization()
            .expect("Simulator requires an acyclic netlist");
        assert!(
            netlist.net_count() <= 1 << 31,
            "net ids must fit an event's 31-bit net field"
        );
        let mut delay = [0; CellKind::ALL.len()];
        for kind in CellKind::ALL {
            let d = netlist.tech().params(kind).delay_ps;
            delay[kind.index()] = (d * TIME_SCALE).round() as Time;
        }
        let dff_cells = netlist
            .cells()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == CellKind::Dff)
            .map(|(i, _)| i as u32)
            .collect();

        let mut sim = Simulator {
            netlist,
            values: vec![false; netlist.net_count()],
            lev,
            queue: EventQueue::new(delay.iter().copied().max().unwrap_or(0)),
            seq: 0,
            now: 0,
            toggles: vec![0; netlist.net_count()],
            newest: vec![0; netlist.net_count()],
            due: vec![0; netlist.net_count()],
            delay,
            dff_cells,
            touched: Vec::new(),
            affected: Vec::new(),
            sampled: Vec::new(),
            cycles: 0,
            events: 0,
            trace: None,
            trace_initial: Vec::new(),
            faults: BTreeMap::new(),
            zero_delay: false,
            telemetry: None,
        };
        // Constant-1 net.
        sim.values[netlist.one().index()] = true;
        // Settle the all-zero state without counting activity.
        for &cell_id in lev.order() {
            let cell = &netlist.cells()[cell_id.index()];
            let out = sim.eval_cell(cell_id.index());
            sim.values[cell.output.index()] = out;
        }
        sim
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Attaches metrics to this simulator:
    ///
    /// - counters `sim.settles`, `sim.events`, `sim.cycles`;
    /// - histogram `sim.settle_events` (committed transitions per
    ///   settle pass — the glitching profile);
    /// - counters `sim.block_toggles.<BLOCK>` per top-level netlist
    ///   block, accumulated every `window` settles (per-settle
    ///   attribution would scan every net on the hot path).
    ///
    /// Re-attaching replaces the previous registration (flushing it
    /// first). Without telemetry the simulator pays one `Option`
    /// branch per settle.
    pub fn attach_telemetry(&mut self, registry: &Registry, window: u64) {
        self.flush_telemetry();
        let mut names: Vec<&str> = Vec::new();
        let mut net_block = vec![u32::MAX; self.netlist.net_count()];
        for cell in self.netlist.cells() {
            let name = self.netlist.top_level_block_name(cell.block);
            let slot = names.iter().position(|&n| n == name).unwrap_or_else(|| {
                names.push(name);
                names.len() - 1
            });
            net_block[cell.output.index()] = slot as u32;
        }
        let block_toggles = names
            .iter()
            .map(|n| registry.counter(&format!("sim.block_toggles.{n}")))
            .collect();
        self.telemetry = Some(SimTelemetry {
            settles: registry.counter("sim.settles"),
            events: registry.counter("sim.events"),
            cycles: registry.counter("sim.cycles"),
            settle_events: registry.histogram("sim.settle_events"),
            window: window.max(1),
            settles_in_window: 0,
            block_toggles,
            net_block,
            last_toggles: self.toggles.clone(),
        });
    }

    /// Forces a per-block toggle flush mid-window (call before taking a
    /// registry snapshot). No-op when no telemetry is attached.
    pub fn flush_telemetry(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.flush_blocks(&self.toggles);
        }
    }

    /// Flushes and removes the attached telemetry, if any.
    pub fn detach_telemetry(&mut self) {
        self.flush_telemetry();
        self.telemetry = None;
    }

    /// Whether telemetry is attached.
    pub fn has_telemetry(&self) -> bool {
        self.telemetry.is_some()
    }

    #[inline]
    fn eval_cell(&self, idx: usize) -> bool {
        let cell = &self.netlist.cells()[idx];
        let a = self.values[cell.inputs[0].index()];
        let b = self.values[cell.inputs[1].index()];
        let c = self.values[cell.inputs[2].index()];
        let d = self.values[cell.inputs[3].index()];
        cell.kind.eval(a, b, c, d)
    }

    /// Schedules a value on a net at the current time (used for primary
    /// inputs). Takes effect on the next [`Simulator::settle`].
    pub fn set_net(&mut self, net: NetId, value: bool) {
        debug_assert!(matches!(
            self.netlist.driver(net),
            Driver::Input | Driver::Const0 | Driver::Const1
        ));
        self.schedule(self.now, net, value);
    }

    /// Schedules an integer value onto a bus (LSB first).
    pub fn set_bus(&mut self, bus: &[NetId], value: u128) {
        for (i, &net) in bus.iter().enumerate() {
            self.set_net(net, (value >> i) & 1 == 1);
        }
    }

    /// Reads a net's current value.
    pub fn read_net(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Reads a bus as an integer (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits.
    pub fn read_bus(&self, bus: &[NetId]) -> u128 {
        assert!(bus.len() <= 128, "bus too wide for u128");
        let mut v = 0u128;
        for (i, &net) in bus.iter().enumerate() {
            if self.values[net.index()] {
                v |= 1 << i;
            }
        }
        v
    }

    /// The value a net's driver currently produces (ignoring any fault).
    /// For primary inputs the externally applied `event_val` is kept.
    fn driven_value(&self, net: NetId, event_val: bool) -> bool {
        match self.netlist.driver(net) {
            Driver::Cell(c) => self.eval_cell(c.index()),
            Driver::Const0 => false,
            Driver::Const1 => true,
            Driver::Input => event_val,
        }
    }

    /// Forces a net to `value` until [`Simulator::clear_fault`] removes the
    /// fault — a stuck-at-0/1 fault. The netlist is untouched; the fault is
    /// an overlay inside the simulator, so campaigns over thousands of
    /// sites reuse one netlist and one simulator.
    ///
    /// Takes effect on the next [`Simulator::settle`] (or
    /// [`Simulator::step_cycle`]), like a primary-input change.
    pub fn inject_stuck_at(&mut self, net: NetId, value: bool) {
        self.faults.insert(
            net.0,
            ActiveFault {
                forced: value,
                expires: None,
            },
        );
        self.schedule(self.now, net, value);
    }

    /// Flips a net for `width_ps` picoseconds of simulated time — a
    /// transient SEU (single-event upset). The net is forced to the
    /// complement of its current value; after the window the fault heals
    /// itself and the net returns to whatever its driver produces.
    pub fn inject_transient(&mut self, net: NetId, width_ps: f64) {
        let width = ((width_ps * TIME_SCALE).round() as Time).max(1);
        let flipped = !self.values[net.index()];
        let expires = self.now + width;
        self.faults.insert(
            net.0,
            ActiveFault {
                forced: flipped,
                expires: Some(expires),
            },
        );
        self.schedule(self.now, net, flipped);
        // Wake-up event at the heal time; the committed value is recomputed
        // from the driver when it matures.
        self.schedule(expires, net, flipped);
    }

    /// Removes the fault on `net` (if any) and schedules the net back to
    /// its driven value. Settle afterwards to propagate the repair.
    pub fn clear_fault(&mut self, net: NetId) {
        if self.faults.remove(&net.0).is_some() {
            let v = self.driven_value(net, self.values[net.index()]);
            self.schedule(self.now, net, v);
        }
    }

    /// Removes every active fault (see [`Simulator::clear_fault`]).
    pub fn clear_faults(&mut self) {
        let nets: Vec<u32> = self.faults.keys().copied().collect();
        for ni in nets {
            self.clear_fault(NetId(ni));
        }
    }

    /// Number of currently active faults (transients disappear when their
    /// window matures during a settle).
    pub fn active_faults(&self) -> usize {
        self.faults.len()
    }

    /// The currently active *stuck-at* faults as `(net, forced value)`
    /// pairs, in deterministic net order. Transient faults (which are
    /// time-dependent and only meaningful to the event-driven engine) are
    /// excluded — this is the overlay a compiled correctness check
    /// replays (see [`crate::compiled`]).
    pub fn stuck_faults(&self) -> Vec<(NetId, bool)> {
        self.faults
            .iter()
            .filter(|(_, f)| f.expires.is_none())
            .map(|(&ni, f)| (NetId(ni), f.forced))
            .collect()
    }

    fn schedule(&mut self, at: Time, net: NetId, value: bool) {
        self.seq += 1;
        self.newest[net.index()] = self.seq;
        self.due[net.index()] = at;
        self.queue.push(self.now, at, self.seq, net.0, value);
    }

    /// Switches the simulator between inertial-delay event propagation
    /// (the default) and **zero-delay** settling.
    ///
    /// Under zero delay a [`Simulator::settle`] applies every pending
    /// source event (primary inputs, DFF Q writes, fault forces) —
    /// newest schedule per net wins, as under inertial cancellation —
    /// and then re-evaluates the combinational logic in one topological
    /// pass, counting exactly one toggle per net whose settled value
    /// changed. No intermediate (glitch) transitions exist, so per-net
    /// toggle counts equal the activity counts of the compiled engine
    /// on the same vectors (`tests/power_parity.rs`
    /// pins this bit-level vs word-level parity). This is the reference
    /// semantics the glitch-inflation calibration divides by.
    ///
    /// Transient (SEU) faults are timing-dependent and meaningless at
    /// zero delay; injecting one while the mode is active is
    /// unsupported (debug builds assert).
    pub fn set_zero_delay(&mut self, on: bool) {
        self.zero_delay = on;
    }

    /// Whether zero-delay settling is active.
    pub fn zero_delay(&self) -> bool {
        self.zero_delay
    }

    /// Zero-delay settle: drain pending source events, then one
    /// topological re-evaluation counting settled-state deltas.
    fn settle_zero_delay(&mut self) -> u64 {
        let mut committed = 0u64;
        // Apply pending source events in schedule order; per net the
        // newest schedule wins, mirroring inertial cancellation.
        let mut pending: Vec<(u64, u32, bool)> = Vec::new();
        self.queue.drain_into(&mut pending);
        pending.sort_unstable();
        for (seq, net, val) in pending {
            let ni = net as usize;
            let mut val = val;
            if let Some(&f) = self.faults.get(&net) {
                debug_assert!(
                    f.expires.is_none(),
                    "transient faults are timing-dependent; unsupported at zero delay"
                );
                val = f.forced;
            } else if self.newest[ni] != seq {
                continue; // superseded by a newer schedule
            }
            if self.values[ni] != val {
                self.values[ni] = val;
                self.toggles[ni] += 1;
                committed += 1;
                if let Some(tr) = &mut self.trace {
                    tr.push((self.now, net, val));
                }
            }
        }
        // Each combinational net settles directly to its fixed point:
        // at most one counted transition per net, never a glitch.
        for &cell_id in self.lev.order() {
            let cell = &self.netlist.cells()[cell_id.index()];
            let out = cell.output;
            let v = match self.faults.get(&out.0) {
                Some(f) => f.forced,
                None => self.eval_cell(cell_id.index()),
            };
            if self.values[out.index()] != v {
                self.values[out.index()] = v;
                self.toggles[out.index()] += 1;
                committed += 1;
                if let Some(tr) = &mut self.trace {
                    tr.push((self.now, out.0, v));
                }
            }
        }
        self.record_settle(committed)
    }

    /// Books a finished settle pass into the counters and telemetry and
    /// returns its committed transitions.
    fn record_settle(&mut self, committed: u64) -> u64 {
        self.events += committed;
        if let Some(t) = &mut self.telemetry {
            t.settles.inc();
            t.events.add(committed);
            t.settle_events.observe(committed as f64);
            t.settles_in_window += 1;
            if t.settles_in_window >= t.window {
                t.flush_blocks(&self.toggles);
            }
        }
        committed
    }

    /// Propagates all pending events until the netlist is quiescent.
    /// Returns the number of committed transitions (including glitches
    /// — unless zero-delay mode is active, see
    /// [`Simulator::set_zero_delay`]).
    pub fn settle(&mut self) -> u64 {
        if self.zero_delay {
            return self.settle_zero_delay();
        }
        let cells = self.netlist.cells();
        let mut committed = 0u64;
        // Latest due tick of a quiet re-evaluation left unscheduled.
        let mut quiet_due: Time = 0;
        let mut touched = std::mem::take(&mut self.touched);
        let mut affected = std::mem::take(&mut self.affected);
        while let Some(t) = self.queue.next_time(self.now) {
            self.now = t;
            touched.clear();
            // Commit every *current* (non-cancelled) event at this
            // timestamp. An event is stale if the driving cell scheduled a
            // newer value before this one matured — inertial filtering.
            let mut cursor = self.queue.take_bucket(t);
            while let Some((seq, net, val)) = self.queue.pop_at(t, &mut cursor) {
                let ni = net as usize;
                let mut val = val;
                if let Some(&f) = self.faults.get(&net) {
                    // Faulted nets bypass inertial cancellation: the forced
                    // value must land no matter how the driver glitches, and
                    // a transient's heal event must never be filtered.
                    if f.expires.is_some_and(|e| t >= e) {
                        self.faults.remove(&net);
                        val = self.driven_value(NetId(net), val);
                    } else {
                        val = f.forced;
                    }
                } else if self.newest[ni] != seq {
                    continue; // cancelled by a newer schedule
                }
                if self.values[ni] != val {
                    self.values[ni] = val;
                    self.toggles[ni] += 1;
                    committed += 1;
                    touched.push(net);
                    if let Some(tr) = &mut self.trace {
                        tr.push((t, net, val));
                    }
                }
            }
            // Evaluate each affected combinational cell once.
            affected.clear();
            for &net in &touched {
                affected.extend_from_slice(self.lev.fanout_of(NetId(net)));
            }
            affected.sort_unstable();
            affected.dedup();
            for &ci in &affected {
                let cell = &cells[ci as usize];
                let out = cell.output;
                let new_val = self.eval_cell(ci as usize);
                let at = t + self.delay[cell.kind.index()];
                // A value the net already holds, with nothing pending to
                // cancel, would commit nothing when it matured: skip it.
                // Faulted nets keep every event (a transient may heal), and
                // so do zero-delay cells (`at == t`): the skip stands in for
                // a later pop that would have moved the clock, and a
                // same-tick event moves nothing; the next turn of this
                // loop pops it.
                if new_val == self.values[out.index()]
                    && self.due[out.index()] <= t
                    && at > t
                    && !self.faults.contains_key(&out.0)
                {
                    quiet_due = quiet_due.max(at);
                    continue;
                }
                self.schedule(at, out, new_val);
            }
        }
        // A skipped event would still have been popped: the clock ends
        // at its tick.
        if quiet_due > self.now {
            self.now = quiet_due;
        }
        self.touched = touched;
        self.affected = affected;
        self.record_settle(committed)
    }

    /// Applies one clock cycle to a sequential netlist:
    ///
    /// 1. samples every DFF's D input (the values settled in the previous
    ///    cycle),
    /// 2. drives the sampled values onto the Q outputs after the clk→q
    ///    delay,
    /// 3. applies `inputs` (bus, value) pairs at the same clock edge,
    /// 4. settles the combinational logic.
    ///
    /// Returns the number of committed transitions in the cycle.
    pub fn step_cycle(&mut self, inputs: &[(&[NetId], u128)]) -> u64 {
        let cells = self.netlist.cells();
        // Sample D inputs *before* anything changes.
        let mut sampled = std::mem::take(&mut self.sampled);
        sampled.clear();
        sampled.extend(
            self.dff_cells
                .iter()
                .map(|&ci| self.values[cells[ci as usize].inputs[0].index()]),
        );
        // Clock edge at a fresh timestamp.
        let q_at = self.now + self.delay[CellKind::Dff.index()];
        for (i, &d) in sampled.iter().enumerate() {
            self.schedule(q_at, cells[self.dff_cells[i] as usize].output, d);
        }
        self.sampled = sampled;
        for (bus, value) in inputs {
            self.set_bus(bus, *value);
        }
        self.cycles += 1;
        if let Some(t) = &self.telemetry {
            t.cycles.inc();
        }
        self.settle()
    }

    /// Transition counts per net since the last reset.
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Total committed transitions since the last reset.
    pub fn total_events(&self) -> u64 {
        self.events
    }

    /// Clock cycles issued since the last reset.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Starts recording committed transitions for VCD export
    /// (see [`crate::trace::write_vcd`]). Snapshot of the current values
    /// becomes the VCD initial state.
    pub fn enable_trace(&mut self) {
        self.trace_initial = self.values.clone();
        self.trace = Some(Vec::new());
    }

    /// The recorded transitions, if tracing is enabled.
    pub fn trace(&self) -> Option<&[crate::trace::TraceEvent]> {
        self.trace.as_deref()
    }

    /// Net values snapshot taken when tracing was enabled.
    pub fn initial_trace_values(&self) -> &[bool] {
        &self.trace_initial
    }

    /// Clears all activity counters (toggles, events, cycles) without
    /// touching net state. Call after warm-up vectors.
    ///
    /// Attached telemetry counters are *not* cleared (registry metrics
    /// are monotonic); pending per-block toggles are flushed and the
    /// window snapshot rebased so later windows stay consistent.
    pub fn reset_activity(&mut self) {
        if let Some(t) = &mut self.telemetry {
            t.flush_blocks(&self.toggles);
            t.last_toggles.iter_mut().for_each(|v| *v = 0);
        }
        self.toggles.iter_mut().for_each(|t| *t = 0);
        self.events = 0;
        self.cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::tech::TechLibrary;

    fn fresh() -> Netlist {
        Netlist::new(TechLibrary::cmos45lp())
    }

    #[test]
    fn zero_delay_counts_settled_transitions_without_glitches() {
        // Hazard circuit: y = a AND delay3(!a). Under inertial delays a
        // rising edge on `a` raises y briefly before the slow inverted
        // path pulls it back down — a glitch the toggle counters see.
        // Under zero delay only settled-state transitions exist, so y
        // (which settles to 0 for every input) never toggles.
        let mut n = fresh();
        let a = n.input("a");
        let na = n.not(a);
        let nb = n.not(na);
        let nc = n.not(nb);
        let y = n.and2(a, nc);
        let mut zd = Simulator::new(&n);
        zd.set_zero_delay(true);
        assert!(zd.zero_delay());
        zd.set_net(a, true);
        zd.settle();
        assert!(!zd.read_net(y));
        assert_eq!(zd.toggles()[y.index()], 0, "no glitch at zero delay");
        assert_eq!(zd.toggles()[a.index()], 1);
        assert_eq!(zd.toggles()[na.index()], 1);
        // The inertial-delay run on the same stimulus sees the hazard.
        let mut ed = Simulator::new(&n);
        ed.set_net(a, true);
        ed.settle();
        assert!(!ed.read_net(y), "same fixed point");
        assert!(
            ed.toggles()[y.index()] >= 2,
            "inertial run counts the glitch (got {})",
            ed.toggles()[y.index()]
        );
    }

    #[test]
    fn zero_delay_respects_stuck_faults_and_newest_event_wins() {
        let mut n = fresh();
        let a = n.input("a");
        let y = n.not(a);
        let mut sim = Simulator::new(&n);
        sim.set_zero_delay(true);
        // Two schedules before one settle: only the newest lands, so
        // `a` counts a single toggle, exactly like one compiled pass.
        sim.set_net(a, true);
        sim.set_net(a, false);
        sim.set_net(a, true);
        sim.settle();
        assert!(sim.read_net(a) && !sim.read_net(y));
        assert_eq!(sim.toggles()[a.index()], 1);
        assert_eq!(sim.toggles()[y.index()], 1);
        // Stuck-at forces override both events and drivers.
        sim.inject_stuck_at(y, true);
        sim.settle();
        assert!(sim.read_net(y));
        sim.set_net(a, false);
        sim.settle();
        assert!(sim.read_net(y), "fault holds against the driver");
        sim.clear_fault(y);
        sim.settle();
        assert!(sim.read_net(y), "!a with a=0 drives 1 anyway");
    }

    #[test]
    fn xor_bus() {
        let mut n = fresh();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let x: Vec<_> = a.iter().zip(&b).map(|(&p, &q)| n.xor2(p, q)).collect();
        let mut sim = Simulator::new(&n);
        sim.set_bus(&a, 0xF0);
        sim.set_bus(&b, 0x3C);
        sim.settle();
        assert_eq!(sim.read_bus(&x), 0xF0 ^ 0x3C);
    }

    #[test]
    fn full_adder_all_inputs() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let (s, co) = n.full_adder(a, b, c);
        let mut sim = Simulator::new(&n);
        for v in 0..8u128 {
            sim.set_bus(&[a, b, c], v);
            sim.settle();
            let ones = v.count_ones() as u128;
            assert_eq!(sim.read_net(s) as u128, ones & 1, "v={v}");
            assert_eq!(sim.read_net(co) as u128, (ones >> 1) & 1, "v={v}");
        }
    }

    #[test]
    fn initial_state_is_settled() {
        // A NAND of two zero inputs is 1 at t=0 — no events needed.
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.nand2(a, b);
        let mut sim = Simulator::new(&n);
        assert!(sim.read_net(y));
        let events = sim.settle();
        assert_eq!(events, 0, "nothing pending after construction");
    }

    #[test]
    fn glitches_are_counted() {
        // y = a XOR delay(a): logically constant 0, but a transition on
        // `a` reaches the XOR at two different times. With four inverters
        // the pulse (4 × inv delay ≈ 90 ps) is wider than the XOR delay
        // (≈ 58 ps), so it propagates: a glitch.
        let mut n = fresh();
        let a = n.input("a");
        let mut d = a;
        for _ in 0..4 {
            d = n.cell(CellKind::Inv, &[d]);
        }
        let y = n.cell(CellKind::Xor2, &[a, d]);
        let mut sim = Simulator::new(&n);
        sim.set_net(a, true);
        sim.settle();
        assert!(!sim.read_net(y), "final value is 0");
        assert_eq!(
            sim.toggles()[y.index()],
            2,
            "the XOR output pulsed high and back: a glitch"
        );
    }

    #[test]
    fn narrow_pulses_are_inertially_filtered() {
        // With only two inverters the skew (≈ 45 ps) is narrower than the
        // XOR's propagation delay (≈ 58 ps): the re-evaluation cancels the
        // pending change and no glitch emerges.
        let mut n = fresh();
        let a = n.input("a");
        let i1 = n.cell(CellKind::Inv, &[a]);
        let i2 = n.cell(CellKind::Inv, &[i1]);
        let y = n.cell(CellKind::Xor2, &[a, i2]);
        let mut sim = Simulator::new(&n);
        sim.set_net(a, true);
        sim.settle();
        assert!(!sim.read_net(y));
        assert_eq!(
            sim.toggles()[y.index()],
            0,
            "pulse narrower than the gate delay must be filtered"
        );
    }

    #[test]
    fn dff_pipeline_moves_one_stage_per_cycle() {
        let mut n = fresh();
        let d = n.input("d");
        let q1 = n.dff(d);
        let q2 = n.dff(q1);
        let mut sim = Simulator::new(&n);
        // step_cycle samples D *before* applying inputs, so the first edge
        // captures the initial d = 0.
        sim.step_cycle(&[(&[d], 1)]);
        let q1_after_1 = sim.read_net(q1);
        let q2_after_1 = sim.read_net(q2);
        sim.step_cycle(&[(&[d], 1)]);
        let q1_after_2 = sim.read_net(q1);
        let q2_after_2 = sim.read_net(q2);
        sim.step_cycle(&[(&[d], 1)]);
        let q2_after_3 = sim.read_net(q2);
        // Sampling precedes input application: first edge captures d=0.
        assert!(!q1_after_1);
        assert!(!q2_after_1);
        assert!(q1_after_2, "second edge captures d=1 set in cycle 1");
        assert!(!q2_after_2);
        assert!(q2_after_3, "value reaches stage 2 one cycle later");
    }

    #[test]
    fn activity_reset() {
        let mut n = fresh();
        let a = n.input("a");
        let y = n.not(a);
        let mut sim = Simulator::new(&n);
        sim.set_net(a, true);
        sim.settle();
        assert!(sim.total_events() > 0);
        sim.reset_activity();
        assert_eq!(sim.total_events(), 0);
        assert_eq!(sim.toggles()[y.index()], 0);
        // State is preserved across the reset.
        assert!(!sim.read_net(y));
    }

    #[test]
    fn stuck_at_overrides_driver_until_cleared() {
        let mut n = fresh();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and2(a, b);
        let z = n.not(y);
        let mut sim = Simulator::new(&n);
        sim.set_bus(&[a, b], 0b11);
        sim.settle();
        assert!(sim.read_net(y) && !sim.read_net(z));
        // Stuck-at-0 on the AND output: downstream logic sees the fault.
        sim.inject_stuck_at(y, false);
        sim.settle();
        assert!(!sim.read_net(y) && sim.read_net(z));
        // Driver glitching cannot overwrite the forced value.
        sim.set_bus(&[a, b], 0b01);
        sim.settle();
        sim.set_bus(&[a, b], 0b11);
        sim.settle();
        assert!(!sim.read_net(y), "fault persists across input changes");
        assert_eq!(sim.active_faults(), 1);
        // Clearing restores the driven value.
        sim.clear_fault(y);
        sim.settle();
        assert!(sim.read_net(y) && !sim.read_net(z));
        assert_eq!(sim.active_faults(), 0);
    }

    #[test]
    fn transient_flip_heals_after_window() {
        let mut n = fresh();
        let a = n.input("a");
        let y = n.buf(a);
        let z = n.not(y);
        let mut sim = Simulator::new(&n);
        sim.set_net(a, true);
        sim.settle();
        assert!(sim.read_net(y) && !sim.read_net(z));
        // SEU on y: a wide pulse propagates through the inverter, then the
        // fault heals itself and the settled state is fault-free.
        let z_toggles_before = sim.toggles()[z.index()];
        sim.inject_transient(y, 500.0);
        sim.settle();
        assert_eq!(sim.active_faults(), 0, "transient healed during settle");
        assert!(sim.read_net(y) && !sim.read_net(z));
        assert_eq!(
            sim.toggles()[z.index()],
            z_toggles_before + 2,
            "the upset pulsed the inverter output there and back"
        );
    }

    #[test]
    fn faulted_dff_input_is_captured() {
        let mut n = fresh();
        let d = n.input("d");
        let q = n.dff(d);
        let mut sim = Simulator::new(&n);
        // d is driven 1 but stuck at 0: the register must capture 0.
        sim.inject_stuck_at(d, false);
        sim.step_cycle(&[(&[d], 1)]);
        sim.step_cycle(&[(&[d], 1)]);
        assert!(!sim.read_net(q), "register captured the faulted D value");
        sim.clear_fault(d);
        sim.step_cycle(&[(&[d], 1)]);
        sim.step_cycle(&[(&[d], 1)]);
        assert!(sim.read_net(q), "repairing the fault restores operation");
    }

    #[test]
    fn telemetry_counts_settles_events_cycles() {
        use mfm_telemetry::Registry;
        let mut n = fresh();
        let a = n.input("a");
        let y = n.in_block("BLK", |n| n.not(a));
        let d = n.dff(y);
        let _ = d;
        let reg = Registry::new();
        let mut sim = Simulator::new(&n);
        sim.attach_telemetry(&reg, 2);
        for i in 0..4u128 {
            sim.step_cycle(&[(&[a], i & 1)]);
        }
        assert_eq!(reg.counter("sim.cycles").get(), 4);
        assert_eq!(reg.counter("sim.settles").get(), 4);
        assert_eq!(reg.counter("sim.events").get(), sim.total_events());
        assert_eq!(reg.histogram("sim.settle_events").count(), 4);
        // Windowed per-block attribution: after a flush, the BLK counter
        // carries exactly the inverter output's toggles.
        sim.flush_telemetry();
        assert_eq!(
            reg.counter("sim.block_toggles.BLK").get(),
            sim.toggles()[y.index()]
        );
        let s = reg.snapshot_json();
        mfm_telemetry::json::check(&s).unwrap();
    }

    #[test]
    fn telemetry_survives_activity_reset() {
        use mfm_telemetry::Registry;
        let mut n = fresh();
        let a = n.input("a");
        let y = n.in_block("B", |n| n.not(a));
        let reg = Registry::new();
        let mut sim = Simulator::new(&n);
        sim.attach_telemetry(&reg, 1000); // window never fires on its own
        sim.set_net(a, true);
        sim.settle();
        let toggles_before = sim.toggles()[y.index()];
        sim.reset_activity(); // must flush pending deltas, not drop them
        sim.set_net(a, false);
        sim.settle();
        sim.flush_telemetry();
        assert_eq!(
            reg.counter("sim.block_toggles.B").get(),
            toggles_before + sim.toggles()[y.index()],
            "registry metrics are monotonic across reset_activity"
        );
    }

    #[test]
    fn wide_bus_roundtrip() {
        let mut n = fresh();
        let a = n.input_bus("a", 128);
        let buf: Vec<_> = a.iter().map(|&x| n.buf(x)).collect();
        let mut sim = Simulator::new(&n);
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        sim.set_bus(&a, v);
        sim.settle();
        assert_eq!(sim.read_bus(&buf), v);
    }
}
