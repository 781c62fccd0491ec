//! The two run modes: one workload in this process (the driver contract),
//! and `all`, which runs every workload in a child process each so peak RSS
//! is per workload.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use vpps_obs::Json;

use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::stats::{mad, median, min_per_position};
use crate::workload::{Rep, SimResult, Spec, Workload};
use crate::{serve, traced, train};

/// Repetitions a timed run never does fewer of, whatever `--seconds` says:
/// the cross-repetition identity check needs more than one.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 64;

/// Requests of a serving trace driven through both backends for the output
/// check. More than the 16 the train check uses: the closed loop starts 64
/// clients at once, and the mix should contain `Train` requests.
const SERVE_CHECK_REQUESTS: usize = 96;

/// Parsed command line of a single-workload run.
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Where `all` writes the combined result file.
    pub out: Option<PathBuf>,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measuring budget, host seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the timed one.
    pub trace: bool,
    /// Tiny op counts.
    pub smoke: bool,
    /// Where to write the traced pass's spans.
    pub spans: Option<PathBuf>,
}

/// What a single-workload run reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted in timed regions.
    pub attempted: u64,
    /// Ops shed, lost, duplicated or non-finite.
    pub failed: u64,
    /// The metrics of this mode, by name.
    pub values: Values,
    /// Per-repetition values, fingerprint, sample counts, check messages.
    pub detail: Json,
}

/// Parses the flags shared by both run modes. `all` takes no `--workload`
/// (the field is then a placeholder it overwrites per child); a single run
/// requires one and takes no `--out`.
fn parse_opts(args: &[String], all: bool) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::TrainTreeB1Cold,
        out: None,
        seed: 7,
        seconds: 20.0,
        trace: false,
        smoke: false,
        spans: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{}", crate::USAGE))
        };
        match arg.as_str() {
            "--workload" if !all => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{}", crate::USAGE))?,
                );
            }
            "--seed" => {
                opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" if !all => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--smoke" => opts.smoke = true,
            "--spans" if !all => opts.spans = Some(PathBuf::from(value()?)),
            "--out" if all => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}\n{}", crate::USAGE)),
        }
    }
    if !all {
        opts.workload =
            workload.ok_or_else(|| format!("--workload is required\n{}", crate::USAGE))?;
    }
    Ok(opts)
}

/// Peak resident set of this process, MB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

fn num_arr(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

/// The timed pass: repetitions of the identical seeded op sequence, each on
/// a fresh `Handle`/`Server`, tracing off, until the budget is used.
fn timed(opts: &Opts) -> Result<Outcome, String> {
    let spec = opts.workload.spec(opts.smoke);
    let begin = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_losses = Vec::new();
    loop {
        match &spec {
            Spec::Train(s) => {
                let (rep, losses) = train::run_rep(s, opts.seed);
                if reps.is_empty() {
                    first_losses = losses;
                }
                reps.push(rep);
            }
            Spec::Serve(s) => reps.push(serve::run_rep(s, opts.seed)),
        }
        let elapsed = begin.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / reps.len() as f64;
        if reps.len() >= MAX_REPS || (reps.len() >= MIN_REPS && next_ends > opts.seconds) {
            break;
        }
    }

    let (mut errors, fingerprint) = match &spec {
        Spec::Train(s) => {
            let inputs = train::TrainInputs::generate(s, opts.seed);
            (
                train::check(&inputs, s, &first_losses),
                inputs.fingerprint(),
            )
        }
        Spec::Serve(s) => {
            let inputs = serve::ServeInputs::generate(s, opts.seed);
            (
                serve::check(&inputs, s, SERVE_CHECK_REQUESTS),
                inputs.fingerprint(),
            )
        }
    };
    let sim: SimResult = reps[0].sim;
    if let Some(i) = reps.iter().position(|r| !r.sim.bit_identical(&sim)) {
        errors.push(format!(
            "simulated metrics of repetition {i} differ from repetition 0: {:?} vs {sim:?}",
            reps[i].sim
        ));
    }

    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup = per_rep(&|r| r.setup_s);
    let ops_per_s = per_rep(&|r| r.ops as f64 / r.host_s);
    let allocs = per_rep(&|r| r.allocs as f64 / r.ops as f64);
    // Host time is judged on the least disturbed sample of every call.
    let segs = min_per_position(reps.iter().map(|r| r.seg_us.as_slice()));
    let calls = min_per_position(reps.iter().map(|r| r.call_us.as_slice()));

    let mut values = Values::new();
    values.insert("setup_s", median(&setup));
    values.insert(
        "host_ops_per_s",
        reps[0].ops as f64 / (segs.iter().sum::<f64>() / 1e6),
    );
    values.insert("host_call_us_p50", median(&calls));
    values.insert("host_allocs_per_op", median(&allocs));
    values.insert("host_peak_rss_mb", peak_rss_mb()?);
    values.insert("sim_ops_per_s", sim.ops_per_s);
    values.insert("sim_latency_us_p50", sim.latency_p50_us);
    values.insert("sim_latency_us_p99", sim.latency_p99_us);

    let mut detail = Json::obj();
    detail.set(
        "fingerprint",
        Json::from(format!("{fingerprint:016x}").as_str()),
    );
    detail.set("reps", Json::from(reps.len() as u64));
    detail.set("call_samples", Json::from(calls.len() as u64));
    detail.set("host_ops_per_s_rep_median", Json::Num(median(&ops_per_s)));
    detail.set("sim_latency_samples", Json::from(sim.latency_n as u64));
    let mut per = Json::obj();
    for (name, v) in [
        ("setup_s", &setup),
        ("host_ops_per_s", &ops_per_s),
        ("host_allocs_per_op", &allocs),
    ] {
        per.set(name, num_arr(v));
        detail.set(&format!("{name}_mad"), Json::Num(mad(v)));
    }
    detail.set("per_rep", per);
    detail.set(
        "errors",
        Json::Arr(errors.iter().map(|e| Json::from(e.as_str())).collect()),
    );
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    Ok(Outcome {
        correct: errors.is_empty(),
        attempted: reps.iter().map(|r| r.ops).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        values,
        detail,
    })
}

/// Runs one workload in this process and prints the result; the last line
/// of standard output is the driver's JSON object.
pub fn one(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args, false)?;
    let outcome = if opts.trace {
        traced::run(&opts)?
    } else {
        timed(&opts)?
    };
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Json::obj();
    println!(
        "workload {} seed {} trace {}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    println!("  why: {}", opts.workload.why());
    for d in defs {
        // A per-layer metric the workload does not exercise reads 0.
        let v = match outcome.values.get(d.name) {
            Some(v) => *v,
            None if opts.trace => 0.0,
            None => return Err(format!("internal: metric {} was not measured", d.name)),
        };
        println!("  {:<34} {:>16.6} {}", d.name, v, d.unit);
        let mut m = Json::obj();
        m.set("value", Json::Num(v));
        m.set("unit", Json::from(d.unit));
        metrics.set(d.name, m);
    }
    let mut text = String::new();
    outcome.detail.write(&mut text);
    println!("detail {text}");
    let mut last = Json::obj();
    last.set("correct", Json::from(outcome.correct));
    last.set("attempted", Json::from(outcome.attempted));
    last.set("failed", Json::from(outcome.failed));
    last.set("metrics", metrics);
    let mut text = String::new();
    last.write(&mut text);
    println!("{text}");
    Ok(outcome.correct && outcome.failed == 0)
}

/// Runs `exe` on one workload and mode, echoing its report; returns the
/// parsed `detail` line and final line.
fn child(exe: &PathBuf, args: &[String]) -> Result<(Json, Json), String> {
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let mut detail = Json::obj();
    let mut last = None;
    for line in stdout.lines() {
        if let Some(d) = line.strip_prefix("detail ") {
            detail = Json::parse(d)?;
        } else {
            println!("{line}");
            last = Some(line);
        }
    }
    let last = last
        .and_then(|l| Json::parse(l).ok())
        .ok_or_else(|| format!("{args:?}: no result line (exit {})", out.status))?;
    Ok((detail, last))
}

/// `all`: every workload, timed pass then traced pass, one child process
/// each; prints every metric and optionally writes the combined result file
/// that `compare` reads.
pub fn all(args: &[String]) -> Result<bool, String> {
    let opts = parse_opts(args, true)?;
    let (seed, seconds) = (opts.seed.to_string(), opts.seconds.to_string());
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut ok = true;
    let mut workloads = Json::obj();
    for w in Workload::ALL {
        let mut row = Json::obj();
        for trace in ["0", "1"] {
            let mut child_args: Vec<String> = [
                "--workload",
                w.name(),
                "--seed",
                &seed,
                "--seconds",
                &seconds,
                "--trace",
                trace,
            ]
            .map(str::to_owned)
            .to_vec();
            if opts.smoke {
                child_args.push("--smoke".to_owned());
            }
            let (detail, last) = child(&exe, &child_args)?;
            let passed = last.get("correct").and_then(Json::as_bool) == Some(true)
                && last.get("failed").and_then(Json::as_u64) == Some(0);
            ok &= passed;
            let key = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            row.set(key, last.get("metrics").cloned().unwrap_or(Json::Null));
            row.set(&format!("{key}_detail"), detail);
            if trace == "0" {
                for k in ["correct", "attempted", "failed"] {
                    row.set(k, last.get(k).cloned().unwrap_or(Json::Null));
                }
            }
        }
        workloads.set(w.name(), row);
    }
    if let Some(path) = opts.out {
        let mut doc = Json::obj();
        doc.set("schema", Json::from("vpps-benchmark"));
        doc.set("version", Json::from(1u64));
        doc.set("seed", Json::from(seed.as_str()));
        doc.set("seconds", Json::from(seconds.as_str()));
        doc.set("smoke", Json::from(opts.smoke));
        doc.set("workloads", workloads);
        let mut text = String::new();
        doc.write(&mut text);
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(ok)
}
