//! End-to-end campaign benchmark for nestsim.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cosim_grid|ladder_long|svc_two_tenants|adaptive_cluster|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds`;
//! `--trace 1` runs the traced pass and the layer probes once. Every
//! operation's simulated output is checked against a reference digest,
//! and the last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The exit code
//! is non-zero when any operation failed. See `e2ebench/README.md`.

mod cells;
mod digest;
mod run;
mod trace;
mod traced;

use std::process::{Command, Stdio};
use std::time::Instant;

use cells::Workload;
use trace::{median, percentile, sum_of_step_medians, timed};

/// End-to-end metrics of every workload, as listed in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Repetitions of the set-up and of the workload in every run, at least.
const MIN_REPS: usize = 3;
/// Set-up repetitions take at most this share of the time measured so
/// far ...
const SETUP_SHARE: f64 = 0.3;
/// ... or at this count.
const MAX_SETUP_REPS: usize = 25;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: digest::DEFAULT_SEED,
        seconds: 10,
        trace: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--bless" => out.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload != "all" && Workload::parse(&out.workload).is_none() {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    Ok(out)
}

/// Failed operations as a share of those attempted.
pub fn failed_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// This process's memory high-water mark (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A human-readable metric line; `all` collects these from its children.
fn metric_line(name: &str, value: f64, unit: &str, note: &str) -> String {
    format!(
        "metric {name} {value} {unit}{}",
        if note.is_empty() {
            String::new()
        } else {
            format!("  # {note}")
        }
    )
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Prints the failures, the result line, and returns the exit code.
fn finish(failures: &[String], attempted: u64, metrics: &[(String, f64, String)]) -> i32 {
    for f in failures.iter().take(20) {
        println!("FAILED {f}");
    }
    let failed = failures.len() as u64;
    println!(
        "{}",
        metric_line(
            "failed_frac",
            failed_frac(attempted, failed),
            "ratio",
            &format!("{failed} failed of {attempted} attempted")
        )
    );
    println!("{}", result_json(failed == 0, attempted, failed, metrics));
    i32::from(failed > 0)
}

fn untraced_main(w: Workload, args: &Args) -> i32 {
    let refs = run::references(w, args.seed, false);
    println!(
        "e2ebench {} seed {}: references are {}",
        w.name(),
        args.seed,
        refs.source
    );
    let mut failures = refs.failures.clone();
    let mut attempted = refs.no_ladder.as_ref().map_or(0, |v| v.len() as u64);

    // One untimed pass first: it fills the allocator's retained heap
    // and is checked like every other pass.
    let warm = run::iteration(w, args.seed);
    attempted += warm.ops.len() as u64;
    failures.extend(run::check(&warm.ops, &refs.digests));

    // Set-up repetitions are interleaved with the passes, so that both
    // medians sample the whole run rather than its first or last part.
    let start = Instant::now();
    let budget = args.seconds as f64;
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut setup_spent = 0.0;
    let mut passes: Vec<Vec<f64>> = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut svc = Vec::new();
    let mut adaptive = Vec::new();
    let mut per_cell: Vec<(String, Vec<f64>)> = Vec::new();
    while passes.len() < MIN_REPS
        || setups.len() < MIN_REPS
        || start.elapsed().as_secs_f64() < budget
    {
        let setup_due = setups.len() < MIN_REPS
            || (setups.len() < MAX_SETUP_REPS
                && setup_spent < SETUP_SHARE * start.elapsed().as_secs_f64());
        if setup_due {
            let (s, secs) = timed(|| run::setup_once(w, args.seed));
            setups.push(s);
            setup_spent += secs;
            continue;
        }
        let it = run::iteration(w, args.seed);
        passes.push(it.steps);
        attempted += it.ops.len() as u64;
        failures.extend(run::check(&it.ops, &refs.digests));
        svc.extend(it.svc);
        if adaptive.is_empty() {
            adaptive = it.adaptive;
        }
        if w == Workload::SvcTwoTenants {
            latencies_ms.extend(it.ops.iter().map(|o| o.secs * 1e3));
            continue;
        }
        for o in it.ops {
            match per_cell.iter_mut().find(|(id, _)| *id == o.id) {
                Some((_, v)) => v.push(o.secs),
                None => per_cell.push((o.id, vec![o.secs])),
            }
        }
    }
    for (id, secs) in &per_cell {
        println!("cell {id}: median {:.4} s", median(secs));
    }
    if !adaptive.is_empty() {
        println!("adaptive cells (samples run, rounds), first pass: {adaptive:?}");
    }

    let values = [
        sum_of_step_medians(&passes),
        sum_of_step_medians(&setups),
        peak_rss_mb(),
    ];
    let totals = |runs: &[Vec<f64>]| -> Vec<f64> { runs.iter().map(|r| r.iter().sum()).collect() };
    let notes = [
        format!(
            "step medians over {} passes {:.4?}",
            passes.len(),
            totals(&passes)
        ),
        format!(
            "step medians over {} set-ups {:.4?}",
            setups.len(),
            totals(&setups)
        ),
        "VmHWM of this process, which ran this workload only".to_string(),
    ];
    let metrics: Vec<(String, f64, String)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), v)| (n.to_string(), v, u.to_string()))
        .collect();
    for ((n, v, u), note) in metrics.iter().zip(&notes) {
        println!("{}", metric_line(n, *v, u, note));
    }
    if w == Workload::SvcTwoTenants {
        for p in [50, 90] {
            let v = percentile(&latencies_ms, p);
            let note = format!("submit->done, {} jobs", latencies_ms.len());
            match v {
                Some(v) => println!("{}", metric_line(&format!("job_p{p}_ms"), v, "ms", &note)),
                None => println!("job_p{p}_ms not reportable: {note}"),
            }
        }
        for c in &svc {
            println!(
                "svc iteration: {} submitted, {} executed, {} dedup hits, {} rejected, {} crashes",
                c.submitted, c.execs, c.dedup_hits, c.rejected, c.crashes
            );
        }
    }
    finish(&failures, attempted, &metrics)
}

fn traced_main(w: Workload, args: &Args) -> i32 {
    let refs = run::references(w, args.seed, true);
    println!(
        "e2ebench {} seed {} (traced): references are {}",
        w.name(),
        args.seed,
        refs.source
    );
    let t = traced::traced_run(w, args.seed, &refs);
    for line in &t.report {
        println!("{line}");
    }
    let mut failures = refs.failures.clone();
    failures.extend(run::check(&t.ops, &refs.digests));
    let attempted = (t.ops.len() + refs.no_ladder.as_ref().map_or(0, Vec::len)) as u64;
    let metrics: Vec<(String, f64, String)> = traced::LAYER_METRICS
        .iter()
        .map(|(n, u)| (n.to_string(), t.metrics[n], u.to_string()))
        .collect();
    for (n, v, u) in &metrics {
        println!("{}", metric_line(n, *v, u, ""));
    }
    finish(&failures, attempted, &metrics)
}

/// Reads `"key": <integer>` out of a result line.
fn json_int(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

/// Every workload, one child process each so that each `peak_rss_mb`
/// is its own workload's high-water mark.
fn all_main(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("own executable path");
    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    let mut metrics = Vec::new();
    let mut table = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn workload process");
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text.lines().last().unwrap_or("");
        for line in text.lines().filter(|l| *l != last) {
            println!("{line}");
            if let Some(rest) = line.strip_prefix("metric ") {
                let f: Vec<&str> = rest.split_whitespace().collect();
                if let (Some(n), Some(v), Some(u)) = (f.first(), f.get(1), f.get(2)) {
                    table.push(format!("  {:18} {:28} {v:>14} {u}", w.name(), n));
                    if let Ok(v) = v.parse::<f64>() {
                        metrics.push((format!("{}.{n}", w.name()), v, u.to_string()));
                    }
                }
            }
        }
        match (json_int(last, "attempted"), json_int(last, "failed")) {
            (Some(a), Some(f)) if out.status.success() => {
                attempted += a;
                failed += f;
            }
            _ => {
                println!("FAILED workload {} exited with {}", w.name(), out.status);
                correct = false;
                failed += 1;
                attempted += 1;
            }
        }
    }
    println!("summary (seed {}):", args.seed);
    for row in &table {
        println!("{row}");
    }
    println!(
        "{}",
        result_json(correct && failed == 0, attempted, failed, &metrics)
    );
    i32::from(!correct || failed > 0)
}

/// Rewrites the pinned digests of `--seed` from the in-process default
/// engine, after checking it against the no-ladder engine.
fn bless_main(args: &Args) -> i32 {
    let selected: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut code = 0;
    for w in selected {
        let cells = cells::workload_cells(w, args.seed);
        let digests: std::collections::BTreeMap<String, u64> = cells
            .iter()
            .map(|c| (c.id(), digest::digest(&run::in_process(w, c))))
            .collect();
        let disagree: Vec<String> = run::check(&run::no_ladder_pass(w, args.seed), &digests);
        if !disagree.is_empty() {
            for d in &disagree {
                println!("not blessed, engines disagree: {d}");
            }
            code = 1;
            continue;
        }
        match digest::bless(w.name(), args.seed, &digests) {
            Ok(()) => println!(
                "blessed {} cells of {} for seed {}",
                digests.len(),
                w.name(),
                args.seed
            ),
            Err(e) => {
                println!("could not write digests of {}: {e}", w.name());
                code = 1;
            }
        }
    }
    code
}

/// Fixes glibc's malloc thresholds at the values a long-running
/// process drifts towards: blocks up to 32 MiB come from the heap, and
/// freed heap memory is kept. With glibc's adaptive thresholds, whether
/// a snapshot clone maps fresh pages or reuses freed heap memory
/// depends on which block sizes the process happened to free before,
/// so the same laddered golden pass cost 0.14 s or 0.45 s (vips at
/// scale 20) depending on the cells that ran earlier in the process,
/// and the grid workloads' figures split into two modes across seeds.
/// With the thresholds fixed and one warm-up pass, every measured pass
/// reuses warm heap memory.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30)] {
        // SAFETY: `mallopt` only retunes the allocator; it takes two
        // plain integers, and this runs before the process spawns any
        // thread.
        let ok = unsafe { mallopt(param, value) };
        assert_eq!(ok, 1, "glibc rejected mallopt({param}, {value})");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() {
    pin_malloc_thresholds();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> [--bless]",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let code = if args.bless {
        bless_main(&args)
    } else if args.workload == "all" {
        all_main(&args)
    } else {
        let w = Workload::parse(&args.workload).expect("checked by parse_args");
        if args.trace {
            traced_main(w, &args)
        } else {
            untraced_main(w, &args)
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_frac_counts_failures_against_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(120, 0), 0.0);
        assert_eq!(failed_frac(120, 3), 0.025);
    }

    #[test]
    fn result_line_round_trips_counts() {
        let line = result_json(true, 42, 0, &[("wall_s".to_string(), 1.5, "s".to_string())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 42, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_int(&line, "attempted"), Some(42));
        assert_eq!(json_int(&line, "failed"), Some(0));
    }

    /// The metric names and units the program prints are the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(traced::LAYER_METRICS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + traced::LAYER_METRICS.len());
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = a("--workload cosim_grid --seed 3 --seconds 5 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 5, true));
        assert!(a("--workload nope --seed 3").is_err());
        assert!(a("--workload all --trace 2").is_err());
        assert!(a("--workload all --seed").is_err());
    }
}
