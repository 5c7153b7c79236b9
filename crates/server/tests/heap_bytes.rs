//! What building the service costs in heap: a counting global allocator
//! tracks the bytes each thread holds, and `Service::new` on the served
//! (combinational) unit with four units and one spare must stay under
//! 1 MB (0.85 MB measured). The pool's units are fault records, the
//! engine holds no simulator, and the service's one simulator is a
//! 64-lane compiled one, so a second compiled simulator (≈0.2 MB on this
//! netlist) or an event-driven `Simulator` per unit (≈0.66 MB each)
//! coming back would fail the bound.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mfm_gatesim::{Netlist, TechLibrary};
use mfm_server::service::{Service, ServiceConfig};
use mfm_telemetry::Registry;
use mfmult::structural::build_unit;

/// `System`, counting the bytes each thread has allocated and not freed.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    // A thread being torn down has no counter left; its bytes are not
    // measured.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting around it
// neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are passed on.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, since every
        // allocation here does.
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's, passed on.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        moved
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes this thread has allocated and not freed.
fn live() -> isize {
    LIVE.with(Cell::get)
}

#[test]
fn service_new_allocates_under_one_megabyte_on_the_served_unit() {
    let mut n = Netlist::new(TechLibrary::cmos45lp());
    let ports = build_unit(&mut n);
    // The compiled program belongs to the netlist, which every service
    // over it shares: build it outside the measurement.
    n.compiled().expect("the served unit is acyclic");
    let registry = Registry::new();
    // The pool `serve` runs by default.
    let mut cfg = ServiceConfig {
        units: 4,
        ..ServiceConfig::default()
    };
    cfg.engine.spares = 1;
    cfg.engine.patrol_slice = 8;
    let before = live();
    let service = Service::new(&n, &ports, cfg, &registry);
    let held = live() - before;
    eprintln!("Service::new held {held} bytes");
    assert!(
        held < 1 << 20,
        "Service::new allocated {held} bytes with 4 units + 1 spare"
    );
    drop(service);
}
