//! `compare A.json B.json`: every (workload, end-to-end metric) pair of
//! two result files, B judged against A. This is the tool for the
//! repeatability criterion (two sets of runs of one commit must agree)
//! and for parent-versus-change runs.

use crate::json::{self, Value};
use crate::schema::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// One metric of one workload in one result file: its value in every
/// untraced run of the file, and the in-run quartile spread of each.
#[derive(Debug, Default, Clone)]
struct Series {
    values: Vec<f64>,
    in_run_spreads: Vec<f64>,
}

impl Series {
    fn center(&self) -> f64 {
        stats::median(&self.values)
    }

    /// Run-to-run spread as a share of the median: the interquartile
    /// range across runs when the file holds several, else the one
    /// run's own quartile spread over its rounds.
    fn spread(&self) -> f64 {
        if self.values.len() >= 2 {
            stats::iqr_share(&self.values)
        } else {
            self.in_run_spreads.first().copied().unwrap_or(0.0)
        }
    }
}

/// `workload → metric → series`, plus failed and attempted totals per
/// workload.
struct ResultFile {
    comparable: bool,
    metrics: BTreeMap<String, BTreeMap<String, Series>>,
    failures: BTreeMap<String, (f64, f64)>,
}

fn load(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let bad = |what: &str| format!("{}: {what}", path.display());
    let mut file = ResultFile {
        comparable: doc
            .get("comparable")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        metrics: BTreeMap::new(),
        failures: BTreeMap::new(),
    };
    for run in doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("no `runs` array"))?
    {
        if run.get("traced").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("run without `workload`"))?;
        let num = |key: &str| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let totals = file.failures.entry(workload.to_string()).or_default();
        totals.0 += num("failed");
        totals.1 += num("attempted");
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| bad("run without `metrics`"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| bad("metric without `value`"))?;
            let quartile = |key: &str| m.get(key).and_then(Value::as_f64).unwrap_or(value);
            let series = file
                .metrics
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default();
            series.values.push(value);
            series.in_run_spreads.push(if value == 0.0 {
                0.0
            } else {
                (quartile("q3") - quartile("q1")) / value.abs()
            });
        }
    }
    Ok(file)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Regression,
    Unresolved,
    Improved,
    Unchanged,
}

/// How much worse `b` is than `a` as a share of `a` (negative: better),
/// and what that means given the bound and the two sides' own spreads.
fn judge(better: Better, bound: f64, a: &Series, b: &Series) -> (f64, f64, Verdict) {
    let (ca, cb) = (a.center(), b.center());
    let worse = match better {
        Better::Lower => (cb - ca) / ca.abs(),
        Better::Higher => (ca - cb) / ca.abs(),
    };
    let spread = a.spread().max(b.spread());
    let verdict = if worse > bound {
        Verdict::Regression
    } else if spread > bound {
        // Too noisy to call: neither "unchanged" nor "improved" is shown.
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, spread, verdict)
}

/// Prints the comparison; `Ok(true)` when nothing regressed.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    if !(a.comparable && b.comparable) {
        println!("note: at least one file is stamped \"comparable\": false (--quick); sizes differ from the frozen ones");
    }
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "spread", "bound"
    );
    let mut clean = true;
    for (workload, metrics_a) in &a.metrics {
        let Some(metrics_b) = b.metrics.get(workload) else {
            println!("{workload:<14} missing from {}", b_path.display());
            clean = false;
            continue;
        };
        for m in &schema::END_TO_END {
            let (Some(sa), Some(sb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let (worse, spread, verdict) = judge(m.better, m.bound, sa, sb);
            clean &= verdict != Verdict::Regression;
            println!(
                "{:<14} {:<14} {:>14.6} {:>14.6} {:>+8.2}% {:>7.2}% {:>6.0}%  {}",
                workload,
                m.name,
                sa.center(),
                sb.center(),
                worse * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                }
            );
        }
        // failed_share: any increase is a regression.
        let share = |f: &ResultFile| {
            f.failures
                .get(workload)
                .map_or(0.0, |(failed, attempted)| failed / attempted.max(1.0))
        };
        let (fa, fb) = (share(&a), share(&b));
        let verdict = if fb > fa { "REGRESSION" } else { "unchanged" };
        clean &= fb <= fa;
        println!(
            "{workload:<14} {:<14} {fa:>14.6} {fb:>14.6} {:>9} {:>8} {:>7}  {verdict}",
            "failed_share", "", "", "any"
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> Series {
        Series {
            values: values.to_vec(),
            in_run_spreads: vec![0.0; values.len()],
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let a = series(&[1.0, 1.01, 0.99, 1.0]);
        let slower = series(&[1.2, 1.21, 1.19, 1.2]);
        let faster = series(&[0.8, 0.81, 0.79, 0.8]);
        let same = series(&[1.02, 1.03, 1.01, 1.02]);
        assert_eq!(
            judge(Better::Lower, 0.1, &a, &slower).2,
            Verdict::Regression
        );
        assert_eq!(judge(Better::Lower, 0.1, &a, &faster).2, Verdict::Improved);
        assert_eq!(judge(Better::Lower, 0.1, &a, &same).2, Verdict::Unchanged);
        assert_eq!(judge(Better::Higher, 0.1, &a, &slower).2, Verdict::Improved);
        assert_eq!(
            judge(Better::Higher, 0.1, &a, &faster).2,
            Verdict::Regression
        );
        let (worse, _, _) = judge(Better::Lower, 0.1, &a, &slower);
        assert!((worse - 0.2).abs() < 1e-9);
    }

    #[test]
    fn a_noisy_pair_is_unresolved_not_unchanged() {
        let a = series(&[1.0, 1.3, 0.7, 1.0, 1.2, 0.8]);
        let b = series(&[1.02, 1.02, 1.02, 1.02]);
        assert_eq!(judge(Better::Lower, 0.1, &a, &b).2, Verdict::Unresolved);
        // A regression beyond the bound is still called.
        let worse = series(&[1.5, 1.5, 1.5, 1.5]);
        assert_eq!(judge(Better::Lower, 0.1, &a, &worse).2, Verdict::Regression);
    }

    #[test]
    fn a_single_run_falls_back_to_its_in_run_quartiles() {
        let quiet = Series {
            values: vec![1.0],
            in_run_spreads: vec![0.02],
        };
        let noisy = Series {
            values: vec![1.0],
            in_run_spreads: vec![0.3],
        };
        assert_eq!(
            judge(Better::Lower, 0.1, &quiet, &quiet).2,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Better::Lower, 0.1, &quiet, &noisy).2,
            Verdict::Unresolved
        );
    }
}
