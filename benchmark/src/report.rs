//! Metric tables, the results JSON (a writer and a reader small enough to
//! own), and `--agree`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::median;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the middleware sees. Every workload reports all of
/// them on an untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("op_p90_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.20),
    e2e("evidence_bytes_per_op", "B", Lower, 0.02),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("audit_records_per_s", "1/s", Higher, 0.25),
];

/// Single-layer metrics, reported by the traced run. Layers are named by
/// crate.
pub const PER_LAYER: &[MetricDef] = &[
    layer("types.codec_us_per_op", "us", Lower),
    layer("crypto.sign_us", "us", Lower),
    layer("crypto.verify_us", "us", Lower),
    layer("crypto.rollover_ms", "ms", Lower),
    layer("crypto.rollover_settled_ms", "ms", Lower),
    layer("crypto.sigs_per_op", "count", Lower),
    layer("crypto.verifies_per_op", "count", Lower),
    layer("crypto.rollovers_per_kop", "count", Lower),
    layer("crypto.us_per_op", "us", Lower),
    layer("crypto.sig_bytes", "B", Lower),
    layer("store.append_us_p50", "us", Lower),
    layer("store.append_us_p99", "us", Lower),
    layer("store.appends_per_op", "count", Lower),
    layer("store.flush_us_per_op", "us", Lower),
    layer("store.barriers_per_kop", "count", Lower),
    layer("store.bytes_per_record", "B", Lower),
    layer("store.epochs_per_kop", "count", Lower),
    layer("store.final_flush_ms", "ms", Lower),
    layer("store.recover_us_per_record", "us", Lower),
    layer("net.msgs_per_op", "count", Lower),
    layer("net.bytes_per_op", "B", Lower),
    layer("net.bus_us_per_msg", "us", Lower),
    layer("net.drops", "count", Lower),
    layer("protocols.op_p50_us.direct", "us", Lower),
    layer("protocols.op_p50_us.voluntary", "us", Lower),
    layer("protocols.op_p50_us.inline_ttp", "us", Lower),
    layer("protocols.op_p50_us.fair_offline", "us", Lower),
    layer("protocols.op_p50_us.sharing", "us", Lower),
    layer("protocols.records_per_op.direct", "count", Lower),
    layer("protocols.records_per_op.voluntary", "count", Lower),
    layer("protocols.records_per_op.inline_ttp", "count", Lower),
    layer("protocols.records_per_op.fair_offline", "count", Lower),
    layer("protocols.records_per_op.sharing", "count", Lower),
    layer("protocols.server_self_us", "us", Lower),
    layer("protocols.ttp_self_us", "us", Lower),
    layer("protocols.effective_batch", "count", Higher),
    layer("protocols.unsealed_at_end", "count", Lower),
    layer("container.plain_invoke_us", "us", Lower),
    layer("container.component_us", "us", Lower),
    layer("core.nr_overhead_x", "x", Lower),
    layer("core.invoke_us_p50", "us", Lower),
    layer("core.invoke_us_p99", "us", Lower),
    layer("core.invoke_us_mean", "us", Lower),
    layer("core.client_self_us", "us", Lower),
    layer("core.ops_per_s_total", "1/s", Higher),
    layer("core.adjudicate_us_per_record", "us", Lower),
    layer("core.window_records_p50", "count", Lower),
    layer("core.audit_us_per_record", "us", Lower),
    layer("breakdown.attributed_us", "us", Lower),
    layer("breakdown.coverage", "x", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// Ops that may fail per op attempted before `--agree` calls it worse.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

// ---------------------------------------------------------------- JSON

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    pub fn entries(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(e) => e,
            _ => &[],
        }
    }

    /// Compact, single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            // Whole numbers print as integers; everything else with all
            // the digits `f64` round-trips.
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    entries.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(entries));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        Some(c) => out.push(c),
                        None => return Err("unterminated escape".into()),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }
}

// --------------------------------------------------------------- agree

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Agreement {
    Ok,
    Worse,
    Unresolved,
}

impl Agreement {
    pub fn as_str(self) -> &'static str {
        match self {
            Agreement::Ok => "ok",
            Agreement::Worse => "worse",
            Agreement::Unresolved => "unresolved",
        }
    }
}

/// Interquartile range of `values` as a share of their median, the way
/// Python's `statistics.quantiles(values, n=4)` cuts quartiles. Zero for
/// fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let quartile = |k: f64| {
        // Exclusive method: position k·(n+1)/4, 1-based, interpolated.
        let pos = (k * (v.len() as f64 + 1.0) / 4.0).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * (pos - lo as f64)
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3.0) - quartile(1.0)) / med.abs()
}

/// Compares one metric of a candidate set `b` against the baseline set
/// `a`. `Worse` when b's median is worse than a's by more than `bound`;
/// `Unresolved` when either set's own spread is wider than the bound,
/// unless every run of `b` beats every run of `a`.
pub fn agree_metric(a: &[f64], b: &[f64], better: Better, bound: f64) -> Agreement {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    if spread(a) > bound || spread(b) > bound {
        let all_better = a.iter().all(|&x| {
            b.iter().all(|&y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        if !all_better {
            return Agreement::Unresolved;
        }
    }
    if worse_by > bound {
        Agreement::Worse
    } else {
        Agreement::Ok
    }
}

/// Per workload, per metric: the values of every run in a results file.
type RunValues = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn run_values(results: &Json) -> RunValues {
    let mut out = RunValues::new();
    for (workload, body) in results.get("workloads").map_or(&[][..], Json::entries) {
        let per_metric = out.entry(workload.clone()).or_default();
        for run in body.get("runs").map_or(&[][..], Json::as_arr) {
            for (name, m) in run.get("metrics").map_or(&[][..], Json::entries) {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    per_metric.entry(name.clone()).or_default().push(v);
                }
            }
            let attempted = run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            per_metric
                .entry("failed_share".into())
                .or_default()
                .push(if attempted > 0.0 {
                    failed / attempted
                } else {
                    1.0
                });
        }
    }
    out
}

/// Compares two results files metric by metric against the end-to-end
/// bounds. Returns the printed rows and whether any row is `worse`.
pub fn agree(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let (va, vb) = (run_values(a), run_values(b));
    let mut rows = Vec::new();
    let mut any_worse = false;
    for (workload, metrics_a) in &va {
        let Some(metrics_b) = vb.get(workload) else {
            rows.push(format!(
                "{workload:<20} missing from the second set       worse"
            ));
            any_worse = true;
            continue;
        };
        for def in END_TO_END {
            let (Some(xa), Some(xb)) = (metrics_a.get(def.name), metrics_b.get(def.name)) else {
                rows.push(format!(
                    "{workload:<20} {:<24} missing      worse",
                    def.name
                ));
                any_worse = true;
                continue;
            };
            let bound = def.bound.unwrap_or(0.0);
            let verdict = agree_metric(xa, xb, def.better, bound);
            any_worse |= verdict == Agreement::Worse;
            rows.push(format!(
                "{workload:<20} {:<24} {:>14.4} -> {:>14.4} {:<4} bound {:>4.0}% spread {:>5.1}%/{:>5.1}%  {}",
                def.name,
                median(xa),
                median(xb),
                def.unit,
                bound * 100.0,
                spread(xa) * 100.0,
                spread(xb) * 100.0,
                verdict.as_str()
            ));
        }
        // failed_share is an absolute bound: both sets read 0 when healthy.
        let share = |m: &BTreeMap<String, Vec<f64>>| median(&m["failed_share"]);
        let (fa, fb) = (share(metrics_a), share(metrics_b));
        let verdict = if fb - fa > FAILED_SHARE_BOUND {
            any_worse = true;
            Agreement::Worse
        } else {
            Agreement::Ok
        };
        rows.push(format!(
            "{workload:<20} {:<24} {fa:>14.6} -> {fb:>14.6}      bound +{FAILED_SHARE_BOUND} absolute                {}",
            "failed_share",
            verdict.as_str()
        ));
    }
    (rows, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let doc = Json::obj([
            ("a", Json::Num(1.5)),
            (
                "b",
                Json::Arr(vec![Json::Num(3.0), Json::Null, Json::Bool(true)]),
            ),
            ("c", Json::Str("q\"uo\\te\nline".into())),
            ("d", Json::obj([("nested", Json::Num(-2e-7))])),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.contains("\"b\": [3, null, true]"));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
    }

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }

    #[test]
    fn agree_rules() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound.
        let near = [104.0, 105.0, 103.0, 104.5, 103.5];
        assert_eq!(
            agree_metric(&steady, &near, Better::Lower, 0.10),
            Agreement::Ok
        );
        // Beyond it.
        let far = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            agree_metric(&steady, &far, Better::Lower, 0.10),
            Agreement::Worse
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            agree_metric(&steady, &far, Better::Higher, 0.10),
            Agreement::Ok
        );
        assert_eq!(
            agree_metric(&far, &steady, Better::Higher, 0.10),
            Agreement::Worse
        );
        // A set noisier than the bound cannot resolve it …
        let noisy = [80.0, 130.0, 100.0, 140.0, 70.0];
        assert_eq!(
            agree_metric(&steady, &noisy, Better::Lower, 0.10),
            Agreement::Unresolved
        );
        // … unless every run of the candidate beats every baseline run.
        let noisy_but_better = [50.0, 80.0, 60.0, 90.0, 40.0];
        assert_eq!(
            agree_metric(&steady, &noisy_but_better, Better::Lower, 0.10),
            Agreement::Ok
        );
    }
}
