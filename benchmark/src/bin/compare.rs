//! `compare BASE.json NEW.json`: one row per (workload, end-to-end metric)
//! with base, new, ratio, the run-to-run difference, the in-run spread,
//! the bound and a verdict.
//!
//! - `worse` — new is worse than base by more than the metric's bound;
//! - `better` — new is better by more than the bound;
//! - `same` — within the bound either way;
//! - `unresolved` — either run's own spread (how far the fast quartile of
//!   its time slices lies from the fast decile it reports; on workload 3,
//!   their 2.5th percentile from the 1st) exceeds the bound, so this pair of
//!   runs cannot tell.
//!
//! Exits non-zero on any `worse` row, or when two runs of one seed report
//! different verification checksums.

use std::process::ExitCode;

use velox::rest::json::Json;
use velox_benchmark::contract::{Better, EndToEnd, END_TO_END};

/// The verdict for one metric given both runs' values and spreads.
fn verdict(m: &EndToEnd, base: f64, new: f64, spread: f64) -> &'static str {
    if base == 0.0 {
        return "unresolved";
    }
    let worse_by = match m.better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    };
    if spread > m.bound {
        "unresolved"
    } else if worse_by > m.bound {
        "worse"
    } else if worse_by < -m.bound {
        "better"
    } else {
        "same"
    }
}

fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or(format!("{path}: no workloads"))?
        .to_vec())
}

fn field<'a>(run: &'a Json, key: &str) -> Option<&'a Json> {
    run.get(key)
}

fn metric(run: &Json, name: &str, key: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get(key)?.as_f64()
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, new_path] = paths.as_slice() else {
        eprintln!("usage: compare BASE.json NEW.json");
        return ExitCode::from(2);
    };
    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "{:<22} {:<16} {:>14} {:>14} {:>7} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "base", "new", "ratio", "diff", "spread", "bound"
    );
    let mut bad = 0usize;
    let mut unresolved = 0usize;
    for b in &base {
        let name = field(b, "workload").and_then(Json::as_str).unwrap_or("?");
        let Some(n) =
            new.iter().find(|n| field(n, "workload").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<22} missing from {new_path}");
            bad += 1;
            continue;
        };
        for m in &END_TO_END {
            let (Some(bv), Some(nv)) = (metric(b, m.name, "value"), metric(n, m.name, "value"))
            else {
                continue;
            };
            let spread = metric(b, m.name, "spread")
                .unwrap_or(0.0)
                .max(metric(n, m.name, "spread").unwrap_or(0.0));
            let v = verdict(m, bv, nv, spread);
            let diff = if bv + nv == 0.0 { 0.0 } else { (nv - bv).abs() / ((nv + bv) / 2.0) };
            println!(
                "{name:<22} {:<16} {bv:>14.3} {nv:>14.3} {:>7.3} {diff:>7.3} {spread:>7.3} {:>6.2}  {v}",
                m.name,
                nv / bv,
                m.bound
            );
            match v {
                "worse" => bad += 1,
                "unresolved" => unresolved += 1,
                _ => {}
            }
        }
        let same_seed =
            field(b, "seed").and_then(Json::as_u64) == field(n, "seed").and_then(Json::as_u64);
        let (bs, ns) = (
            field(b, "checksum").and_then(Json::as_str),
            field(n, "checksum").and_then(Json::as_str),
        );
        if same_seed && bs != ns {
            println!("{name:<22} checksum differs for one seed: {bs:?} vs {ns:?}");
            bad += 1;
        }
        for run in [b, n] {
            if field(run, "correct").and_then(Json::as_bool) != Some(true) {
                println!("{name:<22} a run reports correct = false");
                bad += 1;
            }
        }
    }
    println!("\n{bad} worse or incorrect, {unresolved} unresolved");
    if bad > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(better: Better) -> EndToEnd {
        EndToEnd { name: "x", unit: "u", better, bound: 0.10 }
    }

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let lower = m(Better::Lower);
        assert_eq!(verdict(&lower, 100.0, 105.0, 0.02), "same");
        assert_eq!(verdict(&lower, 100.0, 115.0, 0.02), "worse");
        assert_eq!(verdict(&lower, 100.0, 85.0, 0.02), "better");
        assert_eq!(verdict(&lower, 100.0, 115.0, 0.20), "unresolved");
        let higher = m(Better::Higher);
        assert_eq!(verdict(&higher, 100.0, 85.0, 0.0), "worse");
        assert_eq!(verdict(&higher, 100.0, 115.0, 0.0), "better");
        assert_eq!(verdict(&higher, 0.0, 1.0, 0.0), "unresolved");
    }
}
