//! Registry thread stress: no increment may be lost under concurrent
//! writers and scrapers, and every thread's lookup of a name reaches
//! the one cell the writers fed.

use mfm_telemetry::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Stress: many writer threads hammer the same counter and histogram
/// while a scraper thread concurrently renders snapshots. After join,
/// the totals must account for every single increment.
#[test]
fn no_lost_increments_under_concurrent_scrape() {
    const WRITERS: usize = 8;
    const PER_WRITER: u64 = 20_000;
    let reg = Registry::new();
    reg.histogram_with("work.lat", &[10.0, 100.0, 1000.0]);
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let reg = reg.clone();
            s.spawn(move || {
                let c = reg.counter("work.ops");
                let h = reg.histogram("work.lat");
                for i in 0..PER_WRITER {
                    c.inc();
                    h.observe(((w as u64 * 31 + i) % 2000) as f64);
                }
            });
        }
        // Scraper: continuously render while writers run; every render
        // must be well-formed JSON and monotonically non-decreasing.
        let scraper = {
            let reg = reg.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut last = 0u64;
                let mut scrapes = 0u64;
                // Scrape-then-check-stop: even if the writers finish and
                // `stop` flips before this thread is first scheduled, at
                // least one render is exercised.
                loop {
                    let snap = reg.snapshot_json();
                    mfm_telemetry::json::check(&snap).expect("scrape mid-write is valid JSON");
                    let seen = extract_u64(&snap, "\"work.ops\":").unwrap_or(0);
                    assert!(seen >= last, "counter went backwards: {seen} < {last}");
                    last = seen;
                    scrapes += 1;
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                scrapes
            })
        };
        // Let the scraper observe a good chunk of live writing, then
        // release it; the scope joins the writers afterwards.
        while extract_u64(&reg.snapshot_json(), "\"work.ops\":").unwrap_or(0)
            < (WRITERS as u64 * PER_WRITER) / 4
        {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let scrapes = scraper.join().expect("scraper thread");
        assert!(scrapes > 0, "scraper never ran");
    });

    // All threads joined by scope exit: totals must be exact.
    let snap = reg.snapshot_json();
    let total = WRITERS as u64 * PER_WRITER;
    assert!(
        snap.contains(&format!("\"work.ops\":{total}")),
        "lost counter increments: {snap}"
    );
    assert!(
        snap.contains(&format!("\"count\":{total}")),
        "lost histogram observations: {snap}"
    );
    // Main's own lookups reach the cells the writer threads fed.
    assert_eq!(reg.counter("work.ops").get(), total);
    assert_eq!(reg.histogram("work.lat").count(), total);
}

/// Pulls the integer right after `key` out of a rendered JSON line.
fn extract_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(key)? + key.len();
    let rest = &json[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
