//! `ledger --diff A B`: two sets of runs (result files written with
//! `--out`, one JSON object per line), one row per (metric, workload).

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats;

/// `(workload, metric) -> values`, one per run in the file.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &str) -> Result<Set, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = Set::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let run = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = run.get("workload").and_then(Json::as_str).ok_or_else(|| {
            format!("{path}:{}: no workload (write result files with --out)", n + 1)
        })?;
        for (metric, entry) in run.get("metrics").map_or(&[][..], Json::fields) {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}:{}: {metric} has no value", n + 1))?;
            set.entry((workload.to_string(), metric.clone())).or_default().push(value);
        }
    }
    Ok(set)
}

/// How one (metric, workload) pairing compares.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub a: f64,
    pub b: f64,
    /// `b / a`; its base is `a`.
    pub ratio: f64,
    pub verdict: &'static str,
}

/// Compare the medians of two sets of values of one metric. `worse` when
/// B is beyond the bound; `unresolved` when either set's own spread
/// (quartile distance over median) exceeds the bound, so the sets cannot
/// tell; per-layer metrics have no bound and get no verdict.
pub fn compare(a: &[f64], b: &[f64], better: Better, bound: Option<f64>) -> Row {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worsening = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let verdict = match bound {
        None => "",
        Some(bound) if stats::spread(a).max(stats::spread(b)) > bound => "unresolved",
        Some(bound) if worsening > bound => "worse",
        Some(_) => "ok",
    };
    Row { a: ma, b: mb, ratio: mb / ma, verdict }
}

pub fn print(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read(path_a)?, read(path_b)?);
    println!("A = {path_a}, B = {path_b}; ratio = B / A (base A); medians over each file's runs");
    println!(
        "{:<20} {:<42} {:>14} {:>14} {:>8} {:>6} {:>8}  verdict",
        "workload", "metric", "A", "B", "ratio", "bound", "runs"
    );
    let mut none_worse = true;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else { continue };
        let Some(m) = spec::find(metric) else { continue };
        let row = compare(va, vb, m.better, m.bound);
        none_worse &= row.verdict != "worse";
        println!(
            "{workload:<20} {metric:<42} {:>14.6} {:>14.6} {:>8.4} {:>6} {:>8}  {}",
            row.a,
            row.b,
            row.ratio,
            m.bound.map_or("-".to_string(), |x| x.to_string()),
            format!("{}/{}", va.len(), vb.len()),
            row.verdict
        );
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: +20 % is beyond a 10 % bound, +5 % is not.
        assert_eq!(
            compare(&steady, &[120.0, 121.0, 119.0, 120.0], Better::Lower, Some(0.1)).verdict,
            "worse"
        );
        assert_eq!(
            compare(&steady, &[105.0, 105.0, 104.0, 106.0], Better::Lower, Some(0.1)).verdict,
            "ok"
        );
        // Higher is better: a drop is the worsening.
        assert_eq!(
            compare(&steady, &[80.0, 80.0, 81.0, 79.0], Better::Higher, Some(0.1)).verdict,
            "worse"
        );
        assert_eq!(
            compare(&steady, &[120.0, 120.0, 121.0, 119.0], Better::Higher, Some(0.1)).verdict,
            "ok"
        );
        // A set whose own spread exceeds the bound cannot resolve the question.
        assert_eq!(
            compare(&steady, &[60.0, 100.0, 140.0, 180.0], Better::Lower, Some(0.1)).verdict,
            "unresolved"
        );
        // Per-layer metrics carry no verdict, only the ratio and its base.
        let row = compare(&[2.0], &[3.0], Better::Lower, None);
        assert_eq!((row.verdict, row.ratio), ("", 1.5));
    }
}
