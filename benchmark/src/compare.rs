//! `compare A.json B.json`: two result files written by `all --out`, row by
//! row. `A` is the base of every ratio.

use vpps_obs::Json;

use crate::metrics::{Better, END_TO_END, EXACT_AT_ONE_SEED};
use crate::stats::iqr_share;
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Regressed,
    Unresolved,
}

impl Status {
    fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some("vpps-benchmark") {
        return Err(format!("{path}: not a vpps-benchmark result file"));
    }
    Ok(doc)
}

fn value(row: &Json, metric: &str) -> Option<f64> {
    row.get("end_to_end")?.get(metric)?.get("value")?.as_f64()
}

/// Spread between the repetitions of one run (IQR over median), where the
/// result file carries per-repetition values for the metric. Host call time
/// shares its noise with host throughput.
fn rep_spread(row: &Json, metric: &str) -> f64 {
    let series = match metric {
        "host_call_us_p50" => "host_ops_per_s",
        other => other,
    };
    row.get("end_to_end_detail")
        .and_then(|d| d.get("per_rep"))
        .and_then(|p| p.get(series))
        .and_then(Json::as_arr)
        .map(|arr| arr.iter().filter_map(Json::as_f64).collect::<Vec<f64>>())
        .map_or(0.0, |v| iqr_share(&v))
}

fn failed_share(row: &Json) -> f64 {
    let get = |k: &str| row.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let attempted = get("attempted");
    if attempted > 0.0 {
        get("failed") / attempted
    } else {
        1.0
    }
}

/// Judges `b` against base `a` for one metric. `worse` is the share of `a`
/// by which `b` is worse (negative when better).
fn judge(worse: f64, bound: f64, spread: f64, exact: bool, identical: bool) -> Status {
    if exact {
        // A pure function of the seed: any worsening is a regression.
        if identical || worse <= 0.0 {
            Status::Ok
        } else {
            Status::Regressed
        }
    } else if worse <= bound {
        Status::Ok
    } else if spread > bound {
        Status::Unresolved
    } else {
        Status::Regressed
    }
}

/// Entry point of the `compare` subcommand. `Ok(false)` when any row
/// regressed.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err(crate::USAGE.to_owned());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let key = |doc: &Json, k: &str| {
        let mut s = String::new();
        doc.get(k).unwrap_or(&Json::Null).write(&mut s);
        s
    };
    let same_inputs = key(&a, "seed") == key(&b, "seed") && key(&a, "smoke") == key(&b, "smoke");
    if !same_inputs {
        println!(
            "seeds or sizes differ: simulated metrics are judged by their bounds, not exactly"
        );
    }
    println!(
        "{:<24} {:<20} {:>14} {:>14} {:>8} {:>6}  status",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut regressed = false;
    for w in Workload::ALL {
        let rows = a
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .zip(b.get("workloads").and_then(|ws| ws.get(w.name())));
        let Some((ra, rb)) = rows else {
            println!("{:<24} missing from one file", w.name());
            regressed = true;
            continue;
        };
        for d in END_TO_END {
            let (Some(va), Some(vb)) = (value(ra, d.name), value(rb, d.name)) else {
                println!("{:<24} {:<20} missing from one file", w.name(), d.name);
                regressed = true;
                continue;
            };
            let ratio = vb / va;
            let worse = match d.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let exact = same_inputs && EXACT_AT_ONE_SEED.contains(&d.name);
            let spread = rep_spread(ra, d.name).max(rep_spread(rb, d.name));
            let status = judge(worse, d.bound, spread, exact, va.to_bits() == vb.to_bits());
            regressed |= status == Status::Regressed;
            println!(
                "{:<24} {:<20} {:>14.4} {:>14.4} {:>8.4} {:>6}  {}",
                w.name(),
                d.name,
                va,
                vb,
                ratio,
                if exact {
                    "exact".to_owned()
                } else {
                    format!("{:.2}", d.bound)
                },
                status.name()
            );
        }
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        let status = if fb > fa {
            Status::Regressed
        } else {
            Status::Ok
        };
        regressed |= status == Status::Regressed;
        println!(
            "{:<24} {:<20} {:>14.6} {:>14.6} {:>8} {:>6}  {}",
            w.name(),
            "failed_share",
            fa,
            fb,
            "-",
            "exact",
            status.name()
        );
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judging_follows_bound_spread_and_exactness() {
        assert_eq!(judge(0.05, 0.08, 0.0, false, false), Status::Ok);
        assert_eq!(judge(0.10, 0.08, 0.02, false, false), Status::Regressed);
        assert_eq!(judge(0.10, 0.08, 0.20, false, false), Status::Unresolved);
        assert_eq!(judge(-0.30, 0.08, 0.0, false, false), Status::Ok);
        assert_eq!(judge(0.0, 0.05, 0.0, true, true), Status::Ok);
        assert_eq!(judge(1e-9, 0.05, 0.0, true, false), Status::Regressed);
        assert_eq!(judge(-1e-9, 0.05, 0.0, true, false), Status::Ok);
    }
}
