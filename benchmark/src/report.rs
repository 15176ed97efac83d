//! `spread` and `compare`: the run-to-run spread of every end-to-end
//! metric, and the verdict on two sets of runs, both judged by the bounds
//! `BENCHMARK.json` fixes.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use crate::json::{self, Json};
use crate::stats::{median, spread as spread_of};

/// (workload, metric) → values, one per run, from a `--out` record file.
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// An end-to-end metric's regression rule.
struct Rule {
    lower_is_better: bool,
    bound: f64,
}

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate().filter(|l| !l.1.trim().is_empty()) {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let metrics = rec
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{path}:{}: no metrics", n + 1))?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// The end-to-end rules of `BENCHMARK.json`, looked for in the working
/// directory (the driver's checkout root) and then beside this package.
fn read_rules() -> Result<BTreeMap<String, Rule>, String> {
    let beside = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(&beside))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut rules = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
    {
        let field = |k: &str| m.get(k).and_then(Json::as_str);
        let (Some(name), Some(better), Some(bound)) = (
            field("name"),
            field("better"),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err("BENCHMARK.json: end_to_end entry without name, better or bound".into());
        };
        rules.insert(
            name.to_string(),
            Rule {
                lower_is_better: better == "lower",
                bound,
            },
        );
    }
    Ok(rules)
}

/// Prints, per (workload, end-to-end metric), the median and the spread
/// (interquartile distance ÷ median) over the runs in `path`.
pub fn spread(path: &str) -> ExitCode {
    let (runs, rules) = match (read_runs(path), read_rules()) {
        (Ok(r), Ok(b)) => (r, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("spread: {e}");
            return ExitCode::from(2);
        }
    };
    println!("workload metric runs median spread bound verdict");
    let mut steady = true;
    for ((workload, metric), values) in &runs {
        let Some(rule) = rules.get(metric) else {
            continue;
        };
        let s = spread_of(values);
        // setup_s is gated on its median only, not on its spread.
        let verdict = if s * 3.0 <= rule.bound {
            "steady"
        } else if s <= rule.bound || metric == "setup_s" {
            "within-bound"
        } else {
            steady = false;
            "UNSTEADY"
        };
        println!(
            "{workload} {metric} {} {:.6} {:.4} {} {verdict}",
            values.len(),
            median(values),
            s,
            rule.bound
        );
    }
    if steady {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Judges set `b` against set `a`: `regress` when b's median is worse
/// than a's by more than the bound, `unresolved` when either set's own
/// spread is wider than the bound (so the bound cannot be resolved),
/// `pass` otherwise. Fails on any regress.
pub fn compare(a: &str, b: &str) -> ExitCode {
    let (ra, rb, rules) = match (read_runs(a), read_runs(b), read_rules()) {
        (Ok(x), Ok(y), Ok(r)) => (x, y, r),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("workload metric median_a median_b worse_by spread_a spread_b bound verdict");
    let mut regressed = false;
    for ((workload, metric), va) in &ra {
        let (Some(rule), Some(vb)) = (
            rules.get(metric),
            rb.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let (ma, mb) = (median(va), median(vb));
        let worse_by = if rule.lower_is_better {
            mb - ma
        } else {
            ma - mb
        } / ma.abs().max(f64::MIN_POSITIVE);
        let (sa, sb) = (spread_of(va), spread_of(vb));
        let verdict = if worse_by > rule.bound {
            regressed = true;
            "regress"
        } else if sa.max(sb) > rule.bound && metric != "setup_s" {
            "unresolved"
        } else {
            "pass"
        };
        println!(
            "{workload} {metric} {ma:.6} {mb:.6} {worse_by:+.4} {sa:.4} {sb:.4} {} {verdict}",
            rule.bound
        );
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` must name exactly the workloads and end-to-end
    /// metrics this binary runs and prints, with the same units and
    /// directions.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit, lower)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            let better = if lower { "lower" } else { "higher" };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{name}"
            );
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, lower)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
            let better = if lower { "lower" } else { "higher" };
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better),
                "{name}"
            );
        }
    }
}
