//! Host-telemetry exporters: the JSONL stream (through [`json`]), its
//! parser/merger, the deterministic-subset export, and the unified run
//! report that juxtaposes host wall-clock attribution against the
//! simulated CPI stacks.
//!
//! A telemetry file is JSON Lines: one `{"type": "manifest", ...}` line
//! carrying the run's identity, then one line per non-empty metric row
//! (`span`, `counter`, `gauge`, `hist`). Lines are self-describing, so
//! external producers can append rows the Rust enums don't know — the
//! `run_gate` wrapper in `scripts/check.sh` appends `gate:*` span lines
//! with nothing but a shell and `date +%s%N` — and everything still
//! parses, merges, and reports.

use crate::json::{self, Value};
use slipstream_telemetry::{HistRow, Snapshot, SpanRow};

// ---- JSONL emission -------------------------------------------------------

/// Renders sparse `(bucket, count)` pairs as `[[b, c], ...]`.
fn buckets_json(buckets: &[(u32, u64)]) -> String {
    json::inline_array(buckets.iter().map(|&(b, c)| format!("[{b}, {c}]")))
}

/// One span row as a JSONL line (no trailing newline). Empty histograms
/// omit the `buckets` key — the exact shape shell producers emit.
fn span_line(s: &SpanRow) -> String {
    let mut o = json::Obj::new()
        .str("type", "span")
        .str("name", &s.name)
        .raw("count", s.count)
        .raw("total_nanos", s.total_nanos);
    if !s.buckets.is_empty() {
        o = o.raw("buckets", buckets_json(&s.buckets));
    }
    o.finish()
}

/// One value-histogram row as a JSONL line.
fn hist_line(h: &HistRow) -> String {
    let mut o = json::Obj::new()
        .str("type", "hist")
        .str("name", &h.name)
        .raw("count", h.count)
        .raw("sum", h.sum)
        .raw("max", h.max);
    if !h.buckets.is_empty() {
        o = o.raw("buckets", buckets_json(&h.buckets));
    }
    o.finish()
}

/// The full snapshot as JSONL: manifest first, then spans, counters,
/// gauges, and histograms in export order. `parse_jsonl` inverts this
/// byte-identically (`to_jsonl(&parse_jsonl(&to_jsonl(s))?) == to_jsonl(s)`).
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut labels = json::Obj::new();
    for (k, v) in &snap.labels {
        labels = labels.str(k, v);
    }
    let mut manifest = json::Obj::new()
        .str("type", "manifest")
        .str("binary", &snap.binary)
        .str("scheduler", &snap.scheduler)
        .str("config_digest", &snap.config_digest);
    if let Some(c) = snap.calibration_instrs_per_sec {
        manifest = manifest.f64("calibration_instrs_per_sec", c, 2);
    }
    out.push_str(&manifest.raw("labels", labels.finish()).finish());
    out.push('\n');
    for s in &snap.spans {
        out.push_str(&span_line(s));
        out.push('\n');
    }
    for (name, v) in &snap.counters {
        out.push_str(
            &json::Obj::new()
                .str("type", "counter")
                .str("name", name)
                .raw("value", v)
                .finish(),
        );
        out.push('\n');
    }
    for (name, v) in &snap.gauges {
        out.push_str(
            &json::Obj::new()
                .str("type", "gauge")
                .str("name", name)
                .raw("value", v)
                .finish(),
        );
        out.push('\n');
    }
    for h in &snap.hists {
        out.push_str(&hist_line(h));
        out.push('\n');
    }
    out
}

/// The snapshot's *deterministic* subset as JSONL: counters and value
/// histograms only. No manifest (its labels carry worker counts), no
/// spans, no gauges — everything emitted here is a pure function of the
/// simulated work, so two runs of the same work produce byte-identical
/// output regardless of worker count. The determinism tests diff exactly this.
pub fn deterministic_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str(
            &json::Obj::new()
                .str("type", "counter")
                .str("name", name)
                .raw("value", v)
                .finish(),
        );
        out.push('\n');
    }
    for h in &snap.hists {
        out.push_str(&hist_line(h));
        out.push('\n');
    }
    out
}

// ---- JSONL parsing --------------------------------------------------------

/// Extracts `(bucket, count)` pairs from an optional `buckets` field.
fn read_buckets(obj: &Value) -> Result<Vec<(u32, u64)>, String> {
    let Some(arr) = obj.get("buckets") else {
        return Ok(Vec::new());
    };
    let arr = arr.as_arr().ok_or("buckets is not an array")?;
    arr.iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bucket pair")?;
            let b = pair[0].as_u64().ok_or("bucket index")?;
            let c = pair[1].as_u64().ok_or("bucket count")?;
            Ok((b as u32, c))
        })
        .collect::<Result<_, &str>>()
        .map_err(|e| format!("bad {e} in buckets"))
}

/// A required string field.
fn need_str(obj: &Value, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

/// A required integer field.
fn need_u64(obj: &Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing integer field {key:?}"))
}

/// A required numeric field.
fn need_f64(obj: &Value, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number field {key:?}"))
}

/// Parses a telemetry JSONL document back into a [`Snapshot`]. A
/// `manifest` line is optional (shell-produced gate files have none; the
/// identity then stays at its `-` placeholders) but at most one is
/// allowed — merging across *runs* happens at the [`Snapshot`] level, one
/// file per run. Rows append in file order, so `to_jsonl` of the result
/// reproduces the input byte-for-byte.
pub fn parse_jsonl(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot {
        binary: "-".to_string(),
        scheduler: "-".to_string(),
        config_digest: "0000000000000000".to_string(),
        calibration_instrs_per_sec: None,
        labels: Vec::new(),
        spans: Vec::new(),
        counters: Vec::new(),
        gauges: Vec::new(),
        hists: Vec::new(),
    };
    let mut saw_manifest = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let fail = |e: String| format!("line {}: {e}", idx + 1);
        let val = json::parse(line).map_err(&fail)?;
        let ty = need_str(&val, "type").map_err(&fail)?;
        match ty.as_str() {
            "manifest" => {
                if saw_manifest {
                    return Err(fail("second manifest line (one run per file)".to_string()));
                }
                saw_manifest = true;
                snap.binary = need_str(&val, "binary").map_err(&fail)?;
                snap.scheduler = need_str(&val, "scheduler").map_err(&fail)?;
                snap.config_digest = need_str(&val, "config_digest").map_err(&fail)?;
                snap.calibration_instrs_per_sec = val
                    .get("calibration_instrs_per_sec")
                    .and_then(Value::as_f64);
                if let Some(Value::Obj(pairs)) = val.get("labels") {
                    for (k, v) in pairs {
                        let v = v.as_str().ok_or_else(|| fail("non-string label".into()))?;
                        snap.labels.push((k.clone(), v.to_string()));
                    }
                }
            }
            "span" => snap.spans.push(SpanRow {
                name: need_str(&val, "name").map_err(&fail)?,
                count: need_u64(&val, "count").map_err(&fail)?,
                total_nanos: need_u64(&val, "total_nanos").map_err(&fail)?,
                buckets: read_buckets(&val).map_err(&fail)?,
            }),
            "counter" => snap.counters.push((
                need_str(&val, "name").map_err(&fail)?,
                need_u64(&val, "value").map_err(&fail)?,
            )),
            "gauge" => snap.gauges.push((
                need_str(&val, "name").map_err(&fail)?,
                need_u64(&val, "value").map_err(&fail)?,
            )),
            "hist" => snap.hists.push(HistRow {
                name: need_str(&val, "name").map_err(&fail)?,
                count: need_u64(&val, "count").map_err(&fail)?,
                sum: need_u64(&val, "sum").map_err(&fail)?,
                max: need_u64(&val, "max").map_err(&fail)?,
                buckets: read_buckets(&val).map_err(&fail)?,
            }),
            other => return Err(fail(format!("unknown line type {other:?}"))),
        }
    }
    Ok(snap)
}

// ---- committed throughput reader ------------------------------------------

/// One `model_totals` entry of a committed `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelTotal {
    /// Model name (`calibration`, `ss64`, `slipstream`, ...).
    pub model: String,
    /// Simulated instructions summed over the model's rows.
    pub instructions: u64,
    /// Best-of-reps wall seconds summed over the model's rows.
    pub seconds: f64,
}

impl ModelTotal {
    /// Simulated instructions per wall-clock second.
    pub fn instrs_per_sec(&self) -> f64 {
        self.instructions as f64 / self.seconds
    }
}

/// What the gates read back from a committed `BENCH_throughput.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedThroughput {
    /// `alloc_per_10k_retired`: the allocation gate's ceiling.
    pub alloc_ceiling: f64,
    /// The `calibration` model's totals: the host-speed anchor.
    pub calibration: ModelTotal,
    /// Every `model_totals` entry, calibration included, in file order.
    pub model_totals: Vec<ModelTotal>,
}

/// Reads a committed `BENCH_throughput.json` document: the allocation
/// ceiling and the per-model `model_totals` (not the per-benchmark
/// `rows`). The error names the first missing or malformed field.
pub fn committed_throughput(doc: &str) -> Result<CommittedThroughput, String> {
    let val = json::parse(doc)?;
    let alloc_ceiling = need_f64(&val, "alloc_per_10k_retired")?;
    let model_totals = val
        .get("model_totals")
        .and_then(Value::as_arr)
        .ok_or("missing array field \"model_totals\"")?
        .iter()
        .map(|t| {
            Ok(ModelTotal {
                model: need_str(t, "model")?,
                instructions: need_u64(t, "instructions")?,
                seconds: need_f64(t, "seconds")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let calibration = model_totals
        .iter()
        .find(|t| t.model == "calibration")
        .cloned()
        .ok_or("model_totals has no \"calibration\" entry")?;
    Ok(CommittedThroughput {
        alloc_ceiling,
        calibration,
        model_totals,
    })
}

// ---- the unified run report -----------------------------------------------
//
// Each scheduler has one set of *exclusive top-level* spans: spans that
// tile run_total without overlapping (nested spans like serial-mode
// r_boundary_sync are excluded). "other" is the exact remainder, so the
// named rows plus "other" attribute 100% of run_total by construction —
// the report's job is to show how small "other" is.

/// Serial scheduler: the whole loop is one span (`r_boundary_sync`
/// nests inside it).
const SERIAL_SET: &[&str] = &["serial_exec"];

/// Windowed scheduler: A- and R-side phases interleave on one thread and
/// are all top-level. The untimed serial catch-up (`one_cycle`) lands in
/// "other". `telemetry_report --smoke` gates a real run against this set.
pub const WINDOWED_SET: &[&str] = &[
    "a_checkpoint",
    "a_window_exec",
    "r_window_consume",
    "r_boundary_sync",
    "r_recovery_build",
    "a_rollback_replay",
    "a_recover_apply",
];

/// Sums a span's `(count, total_nanos)` across same-named rows (files
/// from external producers may repeat a name).
fn span_sum(snap: &Snapshot, name: &str) -> (u64, u64) {
    snap.spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(c, n), s| (c + s.count, n + s.total_nanos))
}

/// Nanoseconds as fixed-point milliseconds.
fn ms(nanos: u64) -> String {
    json::f64_fixed(nanos as f64 / 1e6, 3)
}

/// `part` as a percentage of `total`.
fn pct(part: u64, total: u64) -> String {
    json::f64_fixed(100.0 * part as f64 / total.max(1) as f64, 1)
}

/// One attribution row.
fn push_row(out: &mut String, name: &str, count: u64, nanos: u64, total: u64) {
    out.push_str(&format!(
        "    {name:<22} {:>12} ms {:>6}%  (count {count})\n",
        ms(nanos),
        pct(nanos, total)
    ));
}

/// The host wall-clock attribution section for one snapshot.
fn attribution_section(out: &mut String, snap: &Snapshot) {
    let (_, run_total) = span_sum(snap, "run_total");
    let set: Option<&[&str]> = match snap.scheduler.as_str() {
        "serial" => Some(SERIAL_SET),
        "windowed" => Some(WINDOWED_SET),
        _ => None,
    };
    match (set, run_total) {
        (Some(set), total) if total > 0 => {
            out.push_str(&format!(
                "  host wall-clock attribution (run_total = {} ms):\n",
                ms(total)
            ));
            let mut named = 0u64;
            for name in set {
                let (count, nanos) = span_sum(snap, name);
                if count == 0 {
                    continue;
                }
                named += nanos;
                push_row(out, name, count, nanos, total);
            }
            let other = total.saturating_sub(named);
            out.push_str(&format!(
                "    {:<22} {:>12} ms {:>6}%\n",
                "other",
                ms(other),
                pct(other, total)
            ));
            out.push_str(&format!(
                "    attributed: {}% named + {}% other = 100.0% of run_total\n",
                pct(named.min(total), total),
                pct(other, total)
            ));
        }
        _ => {
            // Harness-level snapshots (campaign, fuzz, check.sh gates)
            // have no scheduler span structure: list everything, largest
            // first, as a share of the span sum.
            let mut rows: Vec<&SpanRow> = snap.spans.iter().collect();
            if rows.is_empty() {
                return;
            }
            rows.sort_by_key(|s| std::cmp::Reverse(s.total_nanos));
            let total: u64 = rows.iter().map(|s| s.total_nanos).sum();
            out.push_str(&format!(
                "  host wall-clock spans (sum = {} ms):\n",
                ms(total)
            ));
            for s in rows {
                push_row(out, &s.name, s.count, s.total_nanos, total);
            }
        }
    }
}

/// The simulated-cycle attribution section from a committed
/// `BENCH_cpi_stack.json` document: suite-total A-stream cycles per CPI
/// category. `None` when the document doesn't parse.
fn simulated_section(cpi_doc: &str) -> Option<String> {
    let val = json::parse(cpi_doc).ok()?;
    let rows = val.get("rows")?.as_arr()?;
    let mut cats: Vec<(String, u64)> = Vec::new();
    let mut total = 0u64;
    for row in rows {
        total += row.get("a_cycles").and_then(Value::as_u64)?;
        let Some(Value::Obj(stack)) = row.get("a") else {
            return None;
        };
        for (cat, cycles) in stack {
            let cycles = cycles.as_u64()?;
            match cats.iter_mut().find(|(c, _)| c == cat) {
                Some(e) => e.1 += cycles,
                None => cats.push((cat.clone(), cycles)),
            }
        }
    }
    cats.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let mut out = String::new();
    out.push_str("-- simulated attribution (BENCH_cpi_stack.json, A-stream suite totals) --\n");
    for (cat, cycles) in cats.iter().filter(|&&(_, c)| c > 0) {
        out.push_str(&format!(
            "    {cat:<22} {cycles:>12} cycles {:>6}%\n",
            pct(*cycles, total)
        ));
    }
    out.push_str(
        "  (host spans measure where the simulator's wall-clock goes; the CPI stack\n   \
         measures where the simulated machine's cycles go — different questions,\n   \
         and the two attributions need not match.)\n",
    );
    Some(out)
}

/// The unified human-readable run report: per-snapshot manifest header,
/// exclusive host wall-clock attribution, counters/gauges/histograms,
/// and — when a committed `BENCH_cpi_stack.json` is supplied — the
/// simulated CPI-stack attribution alongside for contrast.
pub fn report_text(snaps: &[Snapshot], cpi_doc: Option<&str>) -> String {
    let mut out = String::new();
    out.push_str("slipstream host-telemetry report\n");
    out.push_str("================================\n\n");
    for snap in snaps {
        out.push_str(&format!(
            "== {} / {} ==  config {}\n",
            snap.binary, snap.scheduler, snap.config_digest
        ));
        if let Some(c) = snap.calibration_instrs_per_sec {
            out.push_str(&format!("  calibration: {c:.0} instrs/s\n"));
        }
        if !snap.labels.is_empty() {
            let labels: Vec<String> = snap
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!("  labels: {}\n", labels.join(", ")));
        }
        attribution_section(&mut out, snap);
        if !snap.counters.is_empty() {
            let rows: Vec<String> = snap
                .counters
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            out.push_str(&format!("  counters: {}\n", rows.join(", ")));
        }
        if !snap.gauges.is_empty() {
            let rows: Vec<String> = snap
                .gauges
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect();
            out.push_str(&format!("  gauges: {}\n", rows.join(", ")));
        }
        for h in &snap.hists {
            let mean = h.sum as f64 / h.count.max(1) as f64;
            out.push_str(&format!(
                "  hist {}: count={} mean={} max={}\n",
                h.name,
                h.count,
                json::f64_fixed(mean, 1),
                h.max
            ));
        }
        out.push('\n');
    }
    if let Some(section) = cpi_doc.and_then(simulated_section) {
        out.push_str(&section);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slipstream_telemetry::{
        CounterKind, GaugeKind, HistKind, RunManifest, SpanKind, Telemetry,
    };

    fn sample_snapshot() -> Snapshot {
        let mut tel = Telemetry::new();
        tel.record_span(SpanKind::RunTotal, 1_000_000);
        tel.record_span(SpanKind::RWindowConsume, 600_000);
        tel.record_span(SpanKind::AWindowExec, 100_000);
        tel.record_span(SpanKind::RBoundarySync, 50_000);
        tel.add(CounterKind::CampaignSites, 96);
        tel.set_gauge(GaugeKind::Workers, 3);
        tel.record_value(HistKind::CampaignSiteCycles, 40_000);
        let m = RunManifest::new("throughput", "windowed", "cfg-debug")
            .label("scale", "0.2")
            .calibration(Some(10_164_380.25));
        tel.snapshot(&m)
    }

    #[test]
    fn jsonl_round_trips_byte_identically_and_every_line_validates() {
        let snap = sample_snapshot();
        let text = to_jsonl(&snap);
        for line in text.lines() {
            json::parse(line).unwrap_or_else(|e| panic!("invalid line {line:?}: {e}"));
        }
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, snap);
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn parses_shell_produced_gate_lines_without_manifest_or_buckets() {
        let text = "{\"type\": \"span\", \"name\": \"gate:fmt\", \"count\": 1, \
                    \"total_nanos\": 123456789}\n";
        let snap = parse_jsonl(text).unwrap();
        assert_eq!(snap.binary, "-");
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "gate:fmt");
        assert!(snap.spans[0].buckets.is_empty());
        // And it re-renders in the exact shape the shell wrote.
        assert_eq!(
            to_jsonl(&snap).lines().nth(1).unwrap().to_string() + "\n",
            text
        );
        assert!(parse_jsonl("{\"type\": \"mystery\"}").is_err());
        assert!(parse_jsonl("not json").is_err());
    }

    #[test]
    fn deterministic_subset_drops_scheduling_dependent_rows() {
        let text = deterministic_jsonl(&sample_snapshot());
        assert!(text.contains("campaign_sites"));
        assert!(text.contains("campaign_site_cycles"));
        assert!(!text.contains("\"span\""), "spans are host-dependent");
        assert!(
            !text.contains("\"gauge\""),
            "workers gauge differs by design"
        );
        assert!(!text.contains("manifest"));
    }

    #[test]
    fn parse_jsonl_rejects_a_plus_signed_unicode_escape() {
        let line = "{\"type\": \"span\", \"name\": \"\\u+041\", \"count\": 1, \"total_nanos\": 1}";
        assert!(parse_jsonl(line).is_err(), "accepted {line:?}");
        let ok = line.replace("\\u+041", "\\u0041");
        assert_eq!(parse_jsonl(&ok).unwrap().spans[0].name, "A");
    }

    #[test]
    fn committed_calibration_reads_the_throughput_doc() {
        let doc = "{\n  \"alloc_per_10k_retired\": 37.53,\n  \"rows\": [\n  ],\n  \
                   \"model_totals\": [\n    \
                   {\"model\": \"calibration\", \"instructions\": 100, \"seconds\": 0.5},\n    \
                   {\"model\": \"ss64\", \"instructions\": 7, \"seconds\": 1.0}\n  ]\n}\n";
        let t = committed_throughput(doc).unwrap();
        assert_eq!(t.alloc_ceiling, 37.53);
        assert_eq!(t.calibration.instrs_per_sec(), 200.0);
        assert_eq!(t.model_totals.len(), 2);
        let err = |doc: &str| committed_throughput(doc).unwrap_err();
        assert!(err("{}").contains("alloc_per_10k_retired"));
        assert!(err("{\"alloc_per_10k_retired\": 1}").contains("model_totals"));
        let no_cal = doc.replace("\"calibration\"", "\"other\"");
        assert!(err(&no_cal).contains("calibration"));
        assert!(err("nonsense").contains("byte 0"));
    }

    #[test]
    fn committed_throughput_counts_each_model_once() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let doc = std::fs::read_to_string(path).expect("committed throughput artifact exists");
        let t = committed_throughput(&doc).unwrap();
        assert_eq!(t.alloc_ceiling, 37.53);
        assert_eq!(t.calibration.instructions, 1_200_002);
        assert_eq!(t.calibration.seconds, 0.118060);
        assert_eq!(t.model_totals.len(), 5);
    }

    #[test]
    fn report_attributes_all_of_run_total() {
        let snap = sample_snapshot();
        let report = report_text(std::slice::from_ref(&snap), None);
        assert!(report.contains("run_total = 1.000 ms"));
        assert!(report.contains("r_window_consume"));
        assert!(report.contains("a_window_exec"));
        // 600k + 100k + 50k named of 1M total -> 25% other.
        assert!(
            report.contains("75.0% named + 25.0% other = 100.0%"),
            "{report}"
        );
        assert!(report.contains("counters: campaign_sites=96"));
    }

    #[test]
    fn report_juxtaposes_the_simulated_cpi_stack() {
        let cpi = "{\n  \"scale\": 1,\n  \"rows\": [\n    \
                   {\"bench\": \"gcc\", \"a_cycles\": 100, \
                   \"a\": {\"base\": 60, \"l2_port\": 40}}\n  ]\n}\n";
        let report = report_text(&[], Some(cpi));
        assert!(report.contains("simulated attribution"));
        assert!(report.contains("base"));
        assert!(report.contains("60.0%"), "{report}");
        assert!(report.contains("l2_port"));
    }
}
