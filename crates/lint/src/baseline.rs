//! Baseline allowlist: committed, *reasoned* exceptions to the lint gate.
//!
//! The gate fails on any finding not covered by the baseline. Entries
//! are keyed `(unit, rule, block)` with a maximum count and a mandatory
//! human reason — an allowlist line without a justification is itself a
//! parse error. Counts may shrink below an entry's `max` (the entry is
//! then reported as *stale*, a nudge to ratchet it down) but never grow
//! above it.

use crate::finding::UnitReport;
use mfm_telemetry::json::{self, JsonArray, JsonObject};
use std::collections::BTreeMap;

/// One allowlisted finding group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Unit name the exception applies to.
    pub unit: String,
    /// Rule code (see [`crate::finding::Rule::code`]).
    pub rule: String,
    /// Top-level block the findings are attributed to.
    pub block: String,
    /// Maximum tolerated number of findings for this key.
    pub max: u64,
    /// Why these findings are accepted.
    pub reason: String,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// The allowlist entries.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parses a baseline from its JSON text.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let fields = json::object_entries(text)?;
        let mut entries = Vec::new();
        for (key, value) in &fields {
            match key.as_str() {
                "version" => {
                    if value.trim() != "1" {
                        return Err(format!("unsupported baseline version {value}"));
                    }
                }
                "entries" => {
                    for item in json::array_entries(value)? {
                        entries.push(parse_entry(&item)?);
                    }
                }
                other => return Err(format!("unknown baseline field {other:?}")),
            }
        }
        Ok(Baseline { entries })
    }

    /// Renders the baseline as JSON.
    pub fn to_json(&self) -> String {
        let mut root = JsonObject::new();
        root.field_u64("version", 1);
        let mut arr = JsonArray::new();
        for e in &self.entries {
            let mut o = JsonObject::new();
            o.field_str("unit", &e.unit);
            o.field_str("rule", &e.rule);
            o.field_str("block", &e.block);
            o.field_u64("max", e.max);
            o.field_str("reason", &e.reason);
            arr.push_raw(&o.finish());
        }
        root.field_raw("entries", &arr.finish());
        root.finish()
    }

    /// Builds a baseline that exactly covers the findings in `reports`,
    /// with placeholder reasons to be edited by hand.
    pub fn covering(reports: &[UnitReport]) -> Baseline {
        let mut counts: BTreeMap<(String, String, String), u64> = BTreeMap::new();
        for r in reports {
            for f in &r.findings {
                *counts
                    .entry((r.unit.clone(), f.rule.code().to_owned(), f.block.clone()))
                    .or_insert(0) += 1;
            }
        }
        Baseline {
            entries: counts
                .into_iter()
                .map(|((unit, rule, block), max)| BaselineEntry {
                    unit,
                    rule,
                    block,
                    max,
                    reason: "TODO: justify".to_owned(),
                })
                .collect(),
        }
    }
}

fn parse_entry(text: &str) -> Result<BaselineEntry, String> {
    let mut unit = None;
    let mut rule = None;
    let mut block = None;
    let mut max = None;
    let mut reason = None;
    for (key, value) in json::object_entries(text)? {
        match key.as_str() {
            "unit" => unit = Some(json::value_str(&key, &value)?),
            "rule" => rule = Some(json::value_str(&key, &value)?),
            "block" => block = Some(json::value_str(&key, &value)?),
            "reason" => reason = Some(json::value_str(&key, &value)?),
            "max" => max = Some(json::value_u64(&key, &value)?),
            other => return Err(format!("unknown baseline entry field {other:?}")),
        }
    }
    let reason = reason.ok_or("baseline entry missing required field \"reason\"")?;
    if reason.trim().is_empty() || reason.starts_with("TODO") {
        return Err(format!(
            "baseline entry reason must be a real justification, got {reason:?}"
        ));
    }
    Ok(BaselineEntry {
        unit: unit.ok_or("baseline entry missing \"unit\"")?,
        rule: rule.ok_or("baseline entry missing \"rule\"")?,
        block: block.ok_or("baseline entry missing \"block\"")?,
        max: max.ok_or("baseline entry missing \"max\"")?,
        reason,
    })
}

/// One violated key in a [`GateResult`]: more findings than the baseline
/// allows (or any findings with no matching entry).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Unit name.
    pub unit: String,
    /// Rule code.
    pub rule: String,
    /// Top-level block.
    pub block: String,
    /// Actual finding count.
    pub count: u64,
    /// Allowed maximum (0 when no entry matches).
    pub allowed: u64,
    /// The finding messages behind this key, for diagnosis.
    pub messages: Vec<String>,
}

/// The outcome of diffing lint reports against a baseline.
#[derive(Debug, Clone, Default)]
pub struct GateResult {
    /// Keys with more findings than allowed. Non-empty fails the gate.
    pub violations: Vec<Violation>,
    /// Baseline entries whose actual count is now below `max` (ratchet
    /// candidates). Informational only.
    pub stale: Vec<(BaselineEntry, u64)>,
}

impl GateResult {
    /// Whether the gate passes (no unbaselined findings).
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Diffs `reports` against `baseline`.
pub fn diff(reports: &[UnitReport], baseline: &Baseline) -> GateResult {
    let mut counts: BTreeMap<(String, String, String), Vec<String>> = BTreeMap::new();
    for r in reports {
        for f in &r.findings {
            counts
                .entry((r.unit.clone(), f.rule.code().to_owned(), f.block.clone()))
                .or_default()
                .push(f.message.clone());
        }
    }
    let allowed_of = |unit: &str, rule: &str, block: &str| -> u64 {
        baseline
            .entries
            .iter()
            .filter(|e| e.unit == unit && e.rule == rule && e.block == block)
            .map(|e| e.max)
            .sum()
    };
    let mut result = GateResult::default();
    for ((unit, rule, block), messages) in &counts {
        let allowed = allowed_of(unit, rule, block);
        if messages.len() as u64 > allowed {
            result.violations.push(Violation {
                unit: unit.clone(),
                rule: rule.clone(),
                block: block.clone(),
                count: messages.len() as u64,
                allowed,
                messages: messages.clone(),
            });
        }
    }
    for e in &baseline.entries {
        let actual = counts
            .get(&(e.unit.clone(), e.rule.clone(), e.block.clone()))
            .map(|m| m.len() as u64)
            .unwrap_or(0);
        if actual < e.max {
            result.stale.push((e.clone(), actual));
        }
    }
    result
}
