//! **xk-trial** — the shared bench-harness envelope every suite emits
//! through (ISSUE 7).
//!
//! One `results/BENCH_<suite>.json` per suite, all carrying the same
//! envelope — schema version, suite name, corpus scale, RNG seed, the
//! suite's wall configuration, and a git-revision placeholder — plus a
//! flat list of measured cases, each a bag of named numeric metrics
//! (throughput, p50/p99 latency, page reads, bytes/posting where
//! applicable). Because the envelope is uniform, `bench_diff` can
//! compare any fresh run against the checked-in baseline and turn a
//! perf delta into a reviewable failure.
//!
//! The pieces:
//!
//! * [`Suite`]/[`Case`] — the builder the bench bins populate;
//! * [`Suite::to_json`]/[`Suite::from_json`] — serialization over the
//!   server's hand-rolled [`JsonBuf`] writer and a minimal JSON reader
//!   (the workspace is std-only by design);
//! * [`Suite::validate`] — the schema gate CI runs on every emitted
//!   artifact;
//! * [`Latency`] — per-case latency aggregation through the *same*
//!   log₂ histogram the server's `/metrics` endpoint uses, so p50/p99
//!   extraction has one implementation (property-tested against exact
//!   quantiles in `crates/server/tests/proptest_metrics.rs`);
//! * [`diff`] — the regression comparison behind `just bench-diff`.
//!
//! [`JsonBuf`]: xk_server::json::JsonBuf

use std::path::{Path, PathBuf};
use std::time::Duration;
use xk_server::json::JsonBuf;
use xk_server::metrics::{Histogram, HistogramSnapshot};

/// The envelope schema this library reads and writes. Bump only with a
/// migration story for the checked-in baselines.
pub const SCHEMA: &str = "xk-trial/v1";

/// The corpus scales a suite may declare; comparisons across different
/// scales are refused rather than silently nonsensical.
pub const SCALES: [&str; 3] = ["smoke", "quick", "full"];

/// One benchmark suite's run: the envelope plus its measured cases.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Suite name (`figures`, `writepath`, ...); also the artifact
    /// filename: `BENCH_<suite>.json`.
    pub suite: String,
    /// Corpus scale: one of [`SCALES`].
    pub scale: String,
    /// The RNG seed the run used (replay handle).
    pub seed: u64,
    /// The commit the run measured: `XK_GIT_REV` when set, else the
    /// `HEAD` of the enclosing git checkout ([`git_rev_in`]), else
    /// `"unknown"`.
    pub git_rev: String,
    /// The wall configuration of the run (page size, pool pages, paper
    /// counts, request budgets, ...), in insertion order.
    pub config: Vec<(String, f64)>,
    pub cases: Vec<Case>,
}

/// One measured data point: a stable id plus named numeric metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Stable identifier, `/`-separated by convention
    /// (`append/group_commit/writers=4`). Diffs match cases by id.
    pub id: String,
    /// Metrics in insertion order. Keys are snake_case; the suffix
    /// conventions in [`direction`] give each key a regression
    /// direction.
    pub metrics: Vec<(String, f64)>,
}

impl Case {
    /// Adds (or overwrites) one metric.
    pub fn metric(&mut self, key: impl Into<String>, value: f64) -> &mut Case {
        let key = key.into();
        if let Some(slot) = self.metrics.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.metrics.push((key, value));
        }
        self
    }

    /// Adds the standard latency metrics from a [`Latency`] recorder.
    pub fn latency(&mut self, lat: &Latency) -> &mut Case {
        for (k, v) in lat.metrics() {
            self.metric(k, v);
        }
        self
    }

    /// Reads one metric back (tests, README table generation).
    pub fn get(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

impl Suite {
    /// A new suite envelope. `git_rev` is resolved from `XK_GIT_REV`,
    /// then from the checkout around the working directory.
    pub fn new(suite: impl Into<String>, scale: impl Into<String>, seed: u64) -> Suite {
        let git_rev = std::env::var("XK_GIT_REV")
            .ok()
            .or_else(|| std::env::current_dir().ok().and_then(|dir| git_rev_in(&dir)))
            .unwrap_or_else(|| "unknown".into());
        Suite {
            suite: suite.into(),
            scale: scale.into(),
            seed,
            git_rev,
            config: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// Records one wall-config entry (page size, pool pages, ...).
    pub fn config(&mut self, key: impl Into<String>, value: f64) -> &mut Suite {
        self.config.push((key.into(), value));
        self
    }

    /// Returns the case with `id`, creating it if necessary.
    pub fn case(&mut self, id: impl Into<String>) -> &mut Case {
        let id = id.into();
        if let Some(i) = self.cases.iter().position(|c| c.id == id) {
            return &mut self.cases[i];
        }
        self.cases.push(Case { id, metrics: Vec::new() });
        self.cases.last_mut().expect("just pushed")
    }

    pub fn find(&self, id: &str) -> Option<&Case> {
        self.cases.iter().find(|c| c.id == id)
    }

    /// The artifact filename for this suite: `BENCH_<suite>.json`.
    pub fn filename(&self) -> String {
        format!("BENCH_{}.json", self.suite)
    }

    /// Renders the envelope as pretty-stable JSON (2-space indent, keys
    /// in fixed order) so checked-in baselines produce reviewable
    /// diffs.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_object();
        j.field_str("schema", SCHEMA);
        j.field_str("suite", &self.suite);
        j.field_str("scale", &self.scale);
        j.field_u64("seed", self.seed);
        j.field_str("git_rev", &self.git_rev);
        j.key("config").begin_object();
        for (k, v) in &self.config {
            j.field_f64(k, *v);
        }
        j.end_object();
        j.key("cases").begin_array();
        for case in &self.cases {
            j.begin_object();
            j.field_str("id", &case.id);
            j.key("metrics").begin_object();
            for (k, v) in &case.metrics {
                j.field_f64(k, *v);
            }
            j.end_object();
            j.end_object();
        }
        j.end_array();
        j.end_object();
        // Re-indent: JsonBuf writes compact JSON; the checked-in
        // baselines want line-per-case diffs.
        indent_json(j.as_str())
    }

    /// Parses an envelope, reporting the first structural error. Schema
    /// *conformance* beyond shape is [`Suite::validate`]'s job.
    pub fn from_json(text: &str) -> Result<Suite, String> {
        let v = parse_json(text)?;
        let obj = v.as_object().ok_or("top level must be an object")?;
        let field = |k: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {k:?}"))
        };
        let schema = field("schema")?.as_str().ok_or("schema must be a string")?;
        if schema != SCHEMA {
            return Err(format!("schema {schema:?} is not {SCHEMA:?}"));
        }
        let suite = field("suite")?.as_str().ok_or("suite must be a string")?.to_string();
        let scale = field("scale")?.as_str().ok_or("scale must be a string")?.to_string();
        let seed = field("seed")?.as_f64().ok_or("seed must be a number")? as u64;
        let git_rev = field("git_rev")?.as_str().ok_or("git_rev must be a string")?.to_string();
        let config = field("config")?
            .as_object()
            .ok_or("config must be an object")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("config.{k} must be a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut cases = Vec::new();
        for (i, c) in field("cases")?
            .as_array()
            .ok_or("cases must be an array")?
            .iter()
            .enumerate()
        {
            let c = c.as_object().ok_or_else(|| format!("cases[{i}] must be an object"))?;
            let id = c
                .iter()
                .find(|(k, _)| k == "id")
                .and_then(|(_, v)| v.as_str())
                .ok_or_else(|| format!("cases[{i}].id must be a string"))?
                .to_string();
            let metrics = c
                .iter()
                .find(|(k, _)| k == "metrics")
                .and_then(|(_, v)| v.as_object())
                .ok_or_else(|| format!("cases[{i}].metrics must be an object"))?
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("cases[{i}].metrics.{k} must be a number"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            cases.push(Case { id, metrics });
        }
        Ok(Suite { suite, scale, seed, git_rev, config, cases })
    }

    /// Schema conformance beyond shape. Returns every violation (CI
    /// prints them all); an empty list means the artifact is valid.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        let ident_ok = |s: &str| {
            !s.is_empty()
                && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        };
        if !ident_ok(&self.suite) {
            errs.push(format!("suite {:?} is not a snake_case identifier", self.suite));
        }
        if !SCALES.contains(&self.scale.as_str()) {
            errs.push(format!("scale {:?} is not one of {SCALES:?}", self.scale));
        }
        if self.git_rev.is_empty() {
            errs.push("git_rev must be non-empty".into());
        }
        if self.cases.is_empty() {
            errs.push("a suite must carry at least one case".into());
        }
        for (k, v) in &self.config {
            if !v.is_finite() {
                errs.push(format!("config.{k} is not finite"));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for case in &self.cases {
            if case.id.is_empty() {
                errs.push("case with empty id".into());
            }
            if !seen.insert(&case.id) {
                errs.push(format!("duplicate case id {:?}", case.id));
            }
            if case.metrics.is_empty() {
                errs.push(format!("case {:?} has no metrics", case.id));
            }
            for (k, v) in &case.metrics {
                if !ident_ok(k) {
                    errs.push(format!("case {:?}: metric key {k:?} is not snake_case", case.id));
                }
                if !v.is_finite() {
                    errs.push(format!("case {:?}: metric {k} is not finite", case.id));
                }
            }
        }
        errs
    }

    /// The derived long-format CSV (`case,metric,value`) — the one
    /// plot-friendly view, generated from the JSON so `results/` holds
    /// a single canonical format per suite.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("case,metric,value\n");
        for case in &self.cases {
            for (k, v) in &case.metrics {
                out.push_str(&format!("{},{},{}\n", case.id, k, v));
            }
        }
        out
    }

    /// Writes `BENCH_<suite>.json` plus the derived `<suite>.csv` into
    /// [`results_dir`] and returns the JSON path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let errs = self.validate();
        assert!(errs.is_empty(), "refusing to write an invalid suite: {errs:?}");
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let json_path = dir.join(self.filename());
        std::fs::write(&json_path, self.to_json())?;
        std::fs::write(dir.join(format!("{}.csv", self.suite)), self.to_csv())?;
        eprintln!("[trial] wrote {}", json_path.display());
        Ok(json_path)
    }
}

/// Where suite artifacts land: `XK_BENCH_OUT` when set (the
/// `bench-diff` flow points fresh runs at a scratch directory), else
/// `results/`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("XK_BENCH_OUT").map(PathBuf::from).unwrap_or_else(|| "results".into())
}

/// Loads and shape-checks `BENCH_<suite>.json` files from a directory.
pub fn load_dir(dir: &Path) -> Result<Vec<Suite>, String> {
    let mut suites = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for p in paths {
        let text =
            std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()))?;
        let suite = Suite::from_json(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        suites.push(suite);
    }
    Ok(suites)
}

// ---------------------------------------------------------------------------
// Latency aggregation through the server's histogram.

/// A concurrent latency recorder for bench cases, backed by the same
/// log₂ [`Histogram`] that serves `/metrics` — one quantile
/// implementation across the server and the harness.
#[derive(Debug)]
pub struct Latency {
    hist: Histogram,
}

impl Default for Latency {
    fn default() -> Latency {
        Latency::new()
    }
}

impl Latency {
    pub fn new() -> Latency {
        // `Histogram::new()`, not `::default()`: only the former seeds
        // `min_us` to `u64::MAX` so the running minimum is correct.
        Latency { hist: Histogram::new() }
    }

    /// Records one sample; callable from any thread.
    pub fn record(&self, elapsed: Duration) {
        self.hist.record_us(elapsed.as_micros() as u64);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }

    /// The standard latency metric set: count, mean, p50/p90/p99, max.
    /// Quantiles are the histogram's conservative upper-bound estimates
    /// (within one power-of-two bucket of the exact rank value).
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let s = self.hist.snapshot();
        vec![
            ("samples".into(), s.count as f64),
            ("mean_us".into(), s.mean_us()),
            ("p50_us".into(), s.quantile_us(0.50) as f64),
            ("p90_us".into(), s.quantile_us(0.90) as f64),
            ("p99_us".into(), s.quantile_us(0.99) as f64),
            ("max_us".into(), s.max_us as f64),
        ]
    }
}

// ---------------------------------------------------------------------------
// Regression diffing.

/// What a metric key means for regressions, derived from the key's
/// suffix conventions so every suite gets diffing without per-suite
/// tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latency / I/O / footprint: a higher fresh value is a regression.
    LowerIsBetter,
    /// Throughput / hit rates: a lower fresh value is a regression.
    HigherIsBetter,
    /// Descriptive (sample counts, totals): never a regression.
    Informational,
}

/// Classifies a metric key. Unknown keys are informational — a diff
/// never fails on a metric it does not understand.
pub fn direction(key: &str) -> Direction {
    let higher = ["_per_sec", "_per_fsync", "hit_rate", "mib_per_sec"];
    if higher.iter().any(|s| key.ends_with(s)) || key.starts_with("speedup") {
        return Direction::HigherIsBetter;
    }
    let lower_suffix = [
        "_us",
        "_ms",
        "_ns",
        "_reads",
        "_writes",
        "_evictions",
        "_per_page",
        "_per_lookup",
        "_lookups",
        "_scanned",
        "_computations",
    ];
    let lower_exact = ["bytes_per_posting", "overhead_pct"];
    if lower_suffix.iter().any(|s| key.ends_with(s))
        || lower_exact.contains(&key)
        || key.contains("latency")
        || key.contains("elapsed")
    {
        return Direction::LowerIsBetter;
    }
    Direction::Informational
}

/// True for exact operation counts (page reads, match lookups, nodes
/// scanned, ...): deterministic given the same corpus and seed, so a
/// diff can hold them to a much tighter ratio than wall-clock numbers,
/// which jitter by whole multiples at smoke scale.
pub fn is_count(key: &str) -> bool {
    let suffixes =
        ["_reads", "_writes", "_evictions", "_per_lookup", "_lookups", "_scanned", "_computations"];
    suffixes.iter().any(|s| key.ends_with(s)) || key == "bytes_per_posting"
}

/// Regression thresholds for [`diff`], all ratios of fresh to baseline.
#[derive(Debug, Clone, Copy)]
pub struct Thresholds {
    /// A lower-is-better metric regresses when
    /// `fresh > baseline * max_worse_ratio`.
    pub max_worse_ratio: f64,
    /// A higher-is-better metric regresses when
    /// `fresh < baseline * min_keep_ratio`.
    pub min_keep_ratio: f64,
    /// Values (both sides) at or below this are noise and never
    /// compared — sub-floor latencies jitter by whole multiples.
    pub abs_floor: f64,
    /// The gate for deterministic count metrics ([`is_count`]), applied
    /// symmetrically in place of `max_worse_ratio`/`min_keep_ratio`.
    /// Counts do not jitter, so this stays tight even when the
    /// wall-clock gate is widened for a noisy host.
    pub count_ratio: f64,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            max_worse_ratio: 1.5,
            min_keep_ratio: 1.0 / 1.5,
            abs_floor: 0.0,
            count_ratio: 1.25,
        }
    }
}

/// One metric that crossed a threshold.
#[derive(Debug, Clone)]
pub struct Finding {
    pub case: String,
    pub metric: String,
    pub baseline: f64,
    pub fresh: f64,
    /// `fresh / baseline` (guarded against a zero baseline).
    pub ratio: f64,
}

/// The outcome of comparing one suite pair.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    pub suite: String,
    /// Why the pair was not comparable (scale mismatch); `None` when
    /// the comparison ran.
    pub skipped: Option<String>,
    /// Metric comparisons performed.
    pub checked: usize,
    /// Cases present in exactly one side (ids).
    pub unmatched: Vec<String>,
    pub regressions: Vec<Finding>,
    /// Threshold-crossing *improvements* (reported, never fatal).
    pub improvements: Vec<Finding>,
}

/// Compares `fresh` against `baseline` case by case. Only directional
/// metrics present on both sides are compared; a scale or suite
/// mismatch yields a skipped report rather than garbage ratios.
pub fn diff(baseline: &Suite, fresh: &Suite, t: &Thresholds) -> DiffReport {
    let mut report = DiffReport { suite: baseline.suite.clone(), ..DiffReport::default() };
    if baseline.suite != fresh.suite {
        report.skipped = Some(format!(
            "suite mismatch: baseline {:?} vs fresh {:?}",
            baseline.suite, fresh.suite
        ));
        return report;
    }
    if baseline.scale != fresh.scale {
        report.skipped = Some(format!(
            "scale mismatch: baseline {:?} vs fresh {:?} — rerun at the baseline scale",
            baseline.scale, fresh.scale
        ));
        return report;
    }
    for base_case in &baseline.cases {
        let Some(fresh_case) = fresh.find(&base_case.id) else {
            report.unmatched.push(format!("{} (baseline only)", base_case.id));
            continue;
        };
        for (key, base_v) in &base_case.metrics {
            let dir = direction(key);
            if dir == Direction::Informational {
                continue;
            }
            let Some(fresh_v) = fresh_case.get(key) else { continue };
            if base_v.max(fresh_v) <= t.abs_floor {
                continue;
            }
            report.checked += 1;
            let ratio = if *base_v > 0.0 {
                fresh_v / base_v
            } else if fresh_v > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
            let finding = || Finding {
                case: base_case.id.clone(),
                metric: key.clone(),
                baseline: *base_v,
                fresh: fresh_v,
                ratio,
            };
            let (worse, keep) = if is_count(key) {
                (t.count_ratio, 1.0 / t.count_ratio)
            } else {
                (t.max_worse_ratio, t.min_keep_ratio)
            };
            match dir {
                Direction::LowerIsBetter => {
                    if ratio > worse {
                        report.regressions.push(finding());
                    } else if ratio < keep {
                        report.improvements.push(finding());
                    }
                }
                Direction::HigherIsBetter => {
                    if ratio < keep {
                        report.regressions.push(finding());
                    } else if ratio > worse {
                        report.improvements.push(finding());
                    }
                }
                Direction::Informational => unreachable!("filtered above"),
            }
        }
    }
    for fresh_case in &fresh.cases {
        if baseline.find(&fresh_case.id).is_none() {
            report.unmatched.push(format!("{} (fresh only)", fresh_case.id));
        }
    }
    report
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (objects, arrays, strings, numbers, bools, null).

/// A parsed JSON value. Object member order is preserved (the envelope
/// round-trips byte-stably through write → parse → write).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
}

/// Parses one JSON document, rejecting trailing garbage.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key at byte {} must be a string", *pos)),
                };
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| Json::Null),
        Some(_) => parse_number(b, pos).map(Json::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|n| n.is_finite())
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so the
                // byte boundaries are valid by construction).
                let s = &text_from(b)[*pos..];
                let c = s.chars().next().expect("non-empty checked above");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn text_from(b: &[u8]) -> &str {
    std::str::from_utf8(b).expect("parse_json input is a &str")
}

/// Two-space pretty-printing for the checked-in artifacts: one line per
/// scalar member, nested containers indented. Operates on writer output
/// (trusted JSON), not arbitrary text.
fn indent_json(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth: usize = 0;
    let mut in_str = false;
    let mut escaped = false;
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for c in compact.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                depth += 1;
                newline(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    out.push('\n');
    out
}

/// The commit checked out in the git repository containing `dir` (or in
/// one of its ancestors), read from the files git keeps: `HEAD` holds a
/// commit hash (detached) or a symbolic ref, whose hash is in the ref's
/// loose file or else in `packed-refs`. `None` outside a repository or
/// when the ref cannot be resolved.
pub fn git_rev_in(dir: &Path) -> Option<String> {
    let git = dir.ancestors().map(|d| d.join(".git")).find(|g| g.is_dir())?;
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let is_hash = |s: &str| s.len() >= 40 && s.bytes().all(|b| b.is_ascii_hexdigit());
    let Some(refname) = head.strip_prefix("ref:").map(str::trim) else {
        return is_hash(head).then(|| head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git.join(refname)) {
        let hash = loose.trim();
        return is_hash(hash).then(|| hash.to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name.trim() == refname && is_hash(hash)).then(|| hash.to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_resolves_symbolic_packed_and_detached_heads() {
        let root = std::env::temp_dir().join(format!("xk-git-rev-{}", std::process::id()));
        let git = root.join(".git");
        let nested = root.join("crates/bench");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        std::fs::create_dir_all(&nested).unwrap();
        let a = "0c6f36db9969cb8fd5b0929e29062f82216991e0";
        let b = "ae1e3f7aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
        let write = |path: &str, text: &str| std::fs::write(git.join(path), text).unwrap();

        // A branch with a loose ref, found from a nested directory.
        write("HEAD", "ref: refs/heads/main\n");
        write("refs/heads/main", &format!("{a}\n"));
        assert_eq!(git_rev_in(&nested).as_deref(), Some(a));

        // A branch only in packed-refs.
        write("HEAD", "ref: refs/heads/topic\n");
        let packed =
            format!("# pack-refs with: peeled\n{a} refs/heads/main\n{b} refs/heads/topic\n");
        write("packed-refs", &packed);
        assert_eq!(git_rev_in(&root).as_deref(), Some(b));

        // A detached HEAD.
        write("HEAD", &format!("{a}\n"));
        assert_eq!(git_rev_in(&root).as_deref(), Some(a));

        // An unresolvable ref, and garbage in HEAD.
        write("HEAD", "ref: refs/heads/gone\n");
        assert_eq!(git_rev_in(&root), None);
        write("HEAD", "not a hash\n");
        assert_eq!(git_rev_in(&root), None);

        std::fs::remove_dir_all(&root).unwrap();
    }

    fn sample() -> Suite {
        let mut s = Suite::new("writepath", "smoke", 0xD07A);
        s.config("page_size", 4096.0);
        s.config("appends", 64.0);
        s.case("append/group_commit/writers=4")
            .metric("appends_per_sec", 900.0)
            .metric("commits_per_fsync", 7.5)
            .metric("wal_commits", 64.0);
        s.case("read_latency/idle").metric("p50_us", 120.0).metric("p99_us", 900.0);
        s
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let s = sample();
        let parsed = Suite::from_json(&s.to_json()).expect("round trip");
        assert_eq!(parsed, s);
        // And stable: render → parse → render is byte-identical.
        assert_eq!(parsed.to_json(), s.to_json());
    }

    #[test]
    fn validate_catches_schema_violations() {
        let mut s = sample();
        assert!(s.validate().is_empty(), "{:?}", s.validate());
        s.scale = "huge".into();
        s.case("read_latency/idle").metric("p50_us", f64::NAN);
        s.cases.push(Case { id: "read_latency/idle".into(), metrics: vec![] });
        let errs = s.validate();
        assert!(errs.iter().any(|e| e.contains("scale")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("not finite")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("duplicate case id")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("no metrics")), "{errs:?}");
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_shapes() {
        assert!(Suite::from_json("[]").is_err());
        assert!(Suite::from_json(r#"{"schema":"xk-trial/v0"}"#)
            .unwrap_err()
            .contains("xk-trial/v1"));
        let mut s = sample().to_json();
        s = s.replace("\"seed\": 53370", "\"seed\": \"x\"");
        assert!(Suite::from_json(&s).is_err());
    }

    #[test]
    fn direction_classification() {
        assert_eq!(direction("appends_per_sec"), Direction::HigherIsBetter);
        assert_eq!(direction("hit_rate"), Direction::HigherIsBetter);
        assert_eq!(direction("speedup_vs_1"), Direction::HigherIsBetter);
        assert_eq!(direction("commits_per_fsync"), Direction::HigherIsBetter);
        assert_eq!(direction("p99_us"), Direction::LowerIsBetter);
        assert_eq!(direction("mean_ms"), Direction::LowerIsBetter);
        assert_eq!(direction("disk_reads"), Direction::LowerIsBetter);
        assert_eq!(direction("logical_reads"), Direction::LowerIsBetter);
        assert_eq!(direction("bytes_per_posting"), Direction::LowerIsBetter);
        assert_eq!(direction("ns_per_page"), Direction::LowerIsBetter);
        assert_eq!(direction("reads_per_lookup"), Direction::LowerIsBetter);
        assert_eq!(direction("match_lookups"), Direction::LowerIsBetter);
        assert_eq!(direction("nodes_scanned"), Direction::LowerIsBetter);
        assert_eq!(direction("lca_computations"), Direction::LowerIsBetter);
        assert_eq!(direction("wal_commits"), Direction::Informational);
        assert_eq!(direction("samples"), Direction::Informational);

        // Operation counts are deterministic; wall-clock numbers are not.
        assert!(is_count("disk_reads") && is_count("match_lookups") && is_count("reads_per_lookup"));
        assert!(!is_count("p99_us") && !is_count("mean_ms") && !is_count("appends_per_sec"));
        assert!(!is_count("ns_per_page"), "ns_per_page is a timing, not a count");
    }

    /// Counts get the tight symmetric gate even when the wall-clock gate
    /// is widened for a noisy host.
    #[test]
    fn count_metrics_keep_the_tight_gate_under_wide_thresholds() {
        let mut baseline = Suite::new("x", "smoke", 1);
        baseline.case("a").metric("disk_reads", 100.0).metric("mean_ms", 1.0);
        let mut fresh = baseline.clone();
        fresh.case("a").metric("disk_reads", 140.0).metric("mean_ms", 1.4);
        let wide = Thresholds { max_worse_ratio: 4.0, min_keep_ratio: 0.25, ..Thresholds::default() };
        let report = diff(&baseline, &fresh, &wide);
        assert_eq!(report.regressions.len(), 1, "{:?}", report.regressions);
        assert_eq!(report.regressions[0].metric, "disk_reads"); // 1.4x > 1.25x count gate
    }

    /// The acceptance self-test: an artificially injected 2× latency
    /// regression must be detected at the default thresholds.
    #[test]
    fn diff_detects_injected_2x_latency_regression() {
        let baseline = sample();
        let mut fresh = baseline.clone();
        for case in &mut fresh.cases {
            for (k, v) in &mut case.metrics {
                if direction(k) == Direction::LowerIsBetter && (k.ends_with("_us")) {
                    *v *= 2.0;
                }
            }
        }
        let report = diff(&baseline, &fresh, &Thresholds::default());
        assert!(report.skipped.is_none());
        assert_eq!(report.regressions.len(), 2, "{:?}", report.regressions);
        assert!(report
            .regressions
            .iter()
            .all(|f| f.metric.ends_with("_us") && (f.ratio - 2.0).abs() < 1e-9));
        // The unchanged throughput metrics did not fire.
        assert!(report.improvements.is_empty());
    }

    #[test]
    fn diff_detects_throughput_loss_and_reports_improvements() {
        let baseline = sample();
        let mut fresh = baseline.clone();
        fresh.case("append/group_commit/writers=4").metric("appends_per_sec", 300.0);
        fresh.case("read_latency/idle").metric("p99_us", 90.0); // 10× better
        let report = diff(&baseline, &fresh, &Thresholds::default());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "appends_per_sec");
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].metric, "p99_us");
    }

    #[test]
    fn diff_refuses_scale_mismatch_and_reports_unmatched_cases() {
        let baseline = sample();
        let mut fresh = baseline.clone();
        fresh.scale = "full".into();
        assert!(diff(&baseline, &fresh, &Thresholds::default()).skipped.is_some());

        let mut fresh = baseline.clone();
        fresh.cases.remove(0);
        fresh.case("new_case").metric("p50_us", 1.0);
        let report = diff(&baseline, &fresh, &Thresholds::default());
        assert!(report.skipped.is_none());
        assert_eq!(report.unmatched.len(), 2, "{:?}", report.unmatched);
    }

    #[test]
    fn abs_floor_suppresses_noise() {
        let mut baseline = Suite::new("x", "smoke", 1);
        baseline.case("a").metric("p50_us", 2.0);
        let mut fresh = baseline.clone();
        fresh.case("a").metric("p50_us", 6.0); // 3×, but tiny
        let t = Thresholds { abs_floor: 10.0, ..Thresholds::default() };
        assert!(diff(&baseline, &fresh, &t).regressions.is_empty());
        assert!(!diff(&baseline, &fresh, &Thresholds::default()).regressions.is_empty());
    }

    #[test]
    fn csv_is_derived_from_cases() {
        let csv = sample().to_csv();
        assert!(csv.starts_with("case,metric,value\n"));
        assert!(csv.contains("append/group_commit/writers=4,appends_per_sec,900"));
        assert!(csv.contains("read_latency/idle,p99_us,900"));
    }

    #[test]
    fn parser_handles_escapes_and_rejects_garbage() {
        let v = parse_json(r#"{"a\n":"bA\\", "n": [1, -2.5e1, true, null]}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "a\n");
        assert_eq!(obj[0].1.as_str(), Some("bA\\"));
        let arr = obj[1].1.as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
    }
}
