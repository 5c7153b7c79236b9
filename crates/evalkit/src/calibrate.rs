//! Glitch-inflation calibration for the compiled activity engine.
//!
//! The compiled 256-lane activity sweep
//! ([`crate::montecarlo::compiled_activity`]) counts **zero-delay**
//! toggles: only settled-state transitions, never the glitches that real
//! gate delays produce and inertial filtering partially removes. The
//! event-driven [`Simulator`](mfm_gatesim::Simulator) models those
//! glitches and stays the source of truth for power. This module closes
//! the gap: a seeded calibration run measures the same workload on both
//! engines and regresses compiled zero-delay energy onto event-driven
//! energy **per top-level block**, producing per-block glitch-inflation
//! factors (plus an event-count factor for the `transitions_per_op`
//! metric). [`measure_unit_compiled_sharded`](crate::montecarlo::measure_unit_compiled_sharded)
//! then applies the factors via
//! [`PowerEstimator::from_toggles_calibrated`](mfm_gatesim::PowerEstimator::from_toggles_calibrated)
//! — clock and leakage are never inflated (both are exact in the
//! compiled path).
//!
//! Calibration is per format because glitch activity is
//! workload-dependent: int64 exercises the full 64×64 array while the
//! binary32 modes gate most of it off, so their glitch ratios differ.
//! The factors generalize across seeds of the same operand
//! distribution; `tests/power_parity.rs` asserts calibrated compiled
//! energy stays within ±5 % of event-driven on a seed the calibration
//! never saw.
//!
//! A calibration is plain data and persists as JSON
//! ([`GlitchCalibration::to_json`] / [`GlitchCalibration::parse`]) so a
//! run can be stored alongside the netlist's benchmark results and
//! reused without re-running the event-driven reference.

use crate::montecarlo::{compiled_activity, measure_unit, merge_and_estimate};
use mfm_gatesim::{CompiledNetlist, Netlist};
use mfm_telemetry::json::{self, JsonArray, JsonObject};
use mfmult::{Format, StructuralPorts};

/// Calibration result for one operating format.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatCal {
    /// The format this calibration applies to.
    pub format: Format,
    /// Per-top-level-block glitch-inflation factors
    /// `(block, event-driven pJ / zero-delay pJ)`, in the block order of
    /// the event-driven breakdown.
    pub per_block: Vec<(String, f64)>,
    /// Whole-unit dynamic-energy ratio, used for blocks without an entry
    /// in [`FormatCal::per_block`].
    pub default_factor: f64,
    /// Event-driven / zero-delay ratio of committed transitions per
    /// operation (scales the `transitions_per_op` glitching metric).
    pub event_factor: f64,
    /// Event-driven reference energy, pJ/op, at calibration time.
    pub event_driven_pj_per_op: f64,
    /// Uncalibrated compiled zero-delay energy, pJ/op, at calibration
    /// time. `event_driven_pj_per_op / zero_delay_pj_per_op` is the
    /// headline glitch-inflation ratio for the format.
    pub zero_delay_pj_per_op: f64,
}

/// A per-format set of glitch-inflation factors tying the compiled
/// zero-delay activity engine to the event-driven reference (see the
/// module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlitchCalibration {
    /// Operations per format used for the calibration run.
    pub ops: u64,
    /// Calibration seed (both engines consumed the same streams).
    pub seed: u64,
    /// One entry per calibrated format.
    pub formats: Vec<FormatCal>,
}

impl GlitchCalibration {
    /// Runs the calibration: for every paper format ([`Format::ALL`]),
    /// measures `ops` operations at `seed` on the event-driven simulator
    /// ([`measure_unit`]) and on the compiled activity engine
    /// ([`compiled_activity`]), and takes the per-block energy ratio as
    /// that block's glitch-inflation factor. Blocks the zero-delay run
    /// never toggles fall back to 1.0 (nothing to inflate).
    ///
    /// `prog` must be compiled from `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if `ops == 0`.
    pub fn run(
        netlist: &Netlist,
        prog: &CompiledNetlist,
        ports: &StructuralPorts,
        ops: usize,
        seed: u64,
    ) -> GlitchCalibration {
        assert!(ops > 0, "need at least one calibration operation");
        let formats = Format::ALL
            .iter()
            .map(|&format| {
                let ed = measure_unit(netlist, ports, format, ops, seed);
                let counts = compiled_activity(prog, ports, format, ops, seed);
                let zd = merge_and_estimate(netlist, ports, ops, &[counts], None);
                let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 1.0 };
                let per_block = ed
                    .per_block_pj
                    .iter()
                    .map(|(block, ed_pj)| {
                        let zd_pj = zd
                            .per_block_pj
                            .iter()
                            .find(|(b, _)| b == block)
                            .map_or(0.0, |(_, pj)| *pj);
                        (block.clone(), ratio(*ed_pj, zd_pj))
                    })
                    .collect();
                FormatCal {
                    format,
                    per_block,
                    default_factor: ratio(ed.dynamic_pj_per_op, zd.dynamic_pj_per_op),
                    event_factor: ratio(ed.transitions_per_op, zd.transitions_per_op),
                    event_driven_pj_per_op: ed.energy_pj_per_op(),
                    zero_delay_pj_per_op: zd.energy_pj_per_op(),
                }
            })
            .collect();
        GlitchCalibration {
            ops: ops as u64,
            seed,
            formats,
        }
    }

    /// The calibration for `format`, if one was run.
    pub fn for_format(&self, format: Format) -> Option<&FormatCal> {
        self.formats.iter().find(|c| c.format == format)
    }

    /// Renders the calibration as JSON.
    pub fn to_json(&self) -> String {
        let mut root = JsonObject::new();
        root.field_u64("version", 1);
        root.field_u64("ops", self.ops);
        root.field_u64("seed", self.seed);
        let mut arr = JsonArray::new();
        for c in &self.formats {
            let mut o = JsonObject::new();
            o.field_str("format", c.format.label());
            o.field_f64("default_factor", c.default_factor);
            o.field_f64("event_factor", c.event_factor);
            o.field_f64("event_driven_pj_per_op", c.event_driven_pj_per_op);
            o.field_f64("zero_delay_pj_per_op", c.zero_delay_pj_per_op);
            let mut blocks = JsonArray::new();
            for (block, factor) in &c.per_block {
                let mut b = JsonObject::new();
                b.field_str("block", block);
                b.field_f64("factor", *factor);
                blocks.push_raw(&b.finish());
            }
            o.field_raw("per_block", &blocks.finish());
            arr.push_raw(&o.finish());
        }
        root.field_raw("formats", &arr.finish());
        root.finish()
    }

    /// Parses a calibration from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown field.
    pub fn parse(text: &str) -> Result<GlitchCalibration, String> {
        let mut cal = GlitchCalibration::default();
        for (key, value) in json::object_entries(text)? {
            match key.as_str() {
                "version" => {
                    if value.trim() != "1" {
                        return Err(format!("unsupported calibration version {value}"));
                    }
                }
                "ops" => cal.ops = json::value_u64(&key, &value)?,
                "seed" => cal.seed = json::value_u64(&key, &value)?,
                "formats" => {
                    for item in json::array_entries(&value)? {
                        cal.formats.push(parse_format_cal(&item)?);
                    }
                }
                other => return Err(format!("unknown calibration field {other:?}")),
            }
        }
        Ok(cal)
    }
}

fn format_from_label(label: &str) -> Result<Format, String> {
    [
        Format::Int64,
        Format::Binary64,
        Format::DualBinary32,
        Format::SingleBinary32,
        Format::QuadBinary16,
    ]
    .into_iter()
    .find(|f| f.label() == label)
    .ok_or_else(|| format!("unknown format label {label:?}"))
}

fn parse_format_cal(text: &str) -> Result<FormatCal, String> {
    let mut format = None;
    let mut per_block = Vec::new();
    let mut default_factor = None;
    let mut event_factor = None;
    let mut ed_pj = None;
    let mut zd_pj = None;
    for (key, value) in json::object_entries(text)? {
        match key.as_str() {
            "format" => format = Some(format_from_label(&json::value_str(&key, &value)?)?),
            "default_factor" => default_factor = Some(json::value_f64(&key, &value)?),
            "event_factor" => event_factor = Some(json::value_f64(&key, &value)?),
            "event_driven_pj_per_op" => ed_pj = Some(json::value_f64(&key, &value)?),
            "zero_delay_pj_per_op" => zd_pj = Some(json::value_f64(&key, &value)?),
            "per_block" => {
                for item in json::array_entries(&value)? {
                    let mut block = None;
                    let mut factor = None;
                    for (k, v) in json::object_entries(&item)? {
                        match k.as_str() {
                            "block" => block = Some(json::value_str(&k, &v)?),
                            "factor" => factor = Some(json::value_f64(&k, &v)?),
                            other => return Err(format!("unknown per_block field {other:?}")),
                        }
                    }
                    per_block.push((
                        block.ok_or("per_block entry missing \"block\"")?,
                        factor.ok_or("per_block entry missing \"factor\"")?,
                    ));
                }
            }
            other => return Err(format!("unknown format calibration field {other:?}")),
        }
    }
    Ok(FormatCal {
        format: format.ok_or("format calibration missing \"format\"")?,
        per_block,
        default_factor: default_factor.ok_or("format calibration missing \"default_factor\"")?,
        event_factor: event_factor.ok_or("format calibration missing \"event_factor\"")?,
        event_driven_pj_per_op: ed_pj
            .ok_or("format calibration missing \"event_driven_pj_per_op\"")?,
        zero_delay_pj_per_op: zd_pj.ok_or("format calibration missing \"zero_delay_pj_per_op\"")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::measure_unit_compiled_sharded;
    use mfm_gatesim::{PowerEstimator, TechLibrary};
    use mfmult::structural::build_unit;

    fn unit() -> (Netlist, StructuralPorts) {
        let mut n = Netlist::new(TechLibrary::cmos45lp());
        let u = build_unit(&mut n);
        (n, u)
    }

    #[test]
    fn factors_inflate_zero_delay_toward_event_driven() {
        let (n, u) = unit();
        let prog = CompiledNetlist::compile(&n).unwrap();
        let cal = GlitchCalibration::run(&n, &prog, &u, 24, 11);
        assert_eq!(cal.formats.len(), Format::ALL.len());
        for c in &cal.formats {
            // Zero-delay counts can only miss glitches, never invent
            // transitions, so every factor is at least 1.
            assert!(
                c.default_factor >= 1.0,
                "{:?}: default factor {}",
                c.format,
                c.default_factor
            );
            assert!(c.event_factor >= 1.0);
            assert!(c.event_driven_pj_per_op >= c.zero_delay_pj_per_op);
            assert!(!c.per_block.is_empty());
        }
        // On the calibration workload itself, applying the per-block
        // factors to the same compiled run reproduces the event-driven
        // energy exactly: each block is scaled by ed/zd of that block.
        let c = cal.for_format(Format::Binary64).unwrap();
        let counts = crate::montecarlo::compiled_activity(&prog, &u, Format::Binary64, 24, 11);
        let measured = PowerEstimator::from_toggles_calibrated(
            &n,
            &counts.toggles,
            counts.events,
            counts.cycles,
            24,
            &c.per_block,
            c.default_factor,
            c.event_factor,
        );
        let err = (measured.energy_pj_per_op() - c.event_driven_pj_per_op).abs()
            / c.event_driven_pj_per_op;
        assert!(
            err < 1e-6,
            "calibrated self-error {:.6}% (got {:.4}, want {:.4})",
            err * 100.0,
            measured.energy_pj_per_op(),
            c.event_driven_pj_per_op
        );
    }

    #[test]
    fn sharded_compiled_measurement_is_thread_invariant_and_calibratable() {
        let (n, u) = unit();
        let prog = CompiledNetlist::compile(&n).unwrap();
        let cal = GlitchCalibration::run(&n, &prog, &u, 16, 7);
        let one =
            measure_unit_compiled_sharded(&n, &prog, &u, Format::Int64, 30, 9, 4, 1, Some(&cal));
        let four =
            measure_unit_compiled_sharded(&n, &prog, &u, Format::Int64, 30, 9, 4, 4, Some(&cal));
        assert_eq!(one.dynamic_pj_per_op, four.dynamic_pj_per_op);
        assert_eq!(one.transitions_per_op, four.transitions_per_op);
        assert_eq!(one.per_block_pj, four.per_block_pj);
        // Calibration inflates the raw zero-delay estimate.
        let raw = measure_unit_compiled_sharded(&n, &prog, &u, Format::Int64, 30, 9, 4, 1, None);
        assert!(one.dynamic_pj_per_op >= raw.dynamic_pj_per_op);
        assert!(raw.dynamic_pj_per_op > 0.0);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let (n, u) = unit();
        let prog = CompiledNetlist::compile(&n).unwrap();
        let cal = GlitchCalibration::run(&n, &prog, &u, 8, 3);
        let parsed = GlitchCalibration::parse(&cal.to_json()).unwrap();
        assert_eq!(parsed, cal);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(GlitchCalibration::parse("{\"version\": 2}").is_err());
        assert!(GlitchCalibration::parse("{\"bogus\": 1}").is_err());
        assert!(
            GlitchCalibration::parse("{\"formats\": [{\"format\": \"int65\"}]}").is_err(),
            "unknown format label"
        );
    }
}
