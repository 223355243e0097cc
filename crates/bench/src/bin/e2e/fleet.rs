//! `--all` and `--calibrate`: run workloads as child processes of this
//! same binary (one process per run, so `setup_s` and `peak_rss_mb` belong
//! to that run alone) and tabulate their result lines.

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{parse_result_line, ResultLine, END_TO_END};
use crate::stats;
use crate::workload::WORKLOADS;
use crate::Args;

/// Run one workload in a child, echoing its output; `None` when it printed
/// no result line. `correct` also requires a clean exit.
fn child(workload: &str, seed: u64, args: &Args, echo: bool) -> Option<ResultLine> {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd.spawn().expect("re-execute this binary");
    let mut last = String::new();
    for line in BufReader::new(proc.stdout.take().expect("piped")).lines() {
        last = line.expect("child output is text");
        if echo {
            println!("[{workload}] {last}");
        }
    }
    let status = proc.wait().expect("child ends");
    let mut result = parse_result_line(&last)?;
    result.correct &= status.success();
    Some(result)
}

/// One table row: a cell per workload.
fn cols<T>(items: &[T], cell: impl Fn(&T) -> String) -> String {
    items.iter().map(cell).collect::<Vec<_>>().join(" ")
}

/// Every workload once; a table of every metric by workload.
pub fn all(args: &Args) -> ExitCode {
    let results: Vec<Option<ResultLine>> = WORKLOADS
        .iter()
        .map(|w| child(w.name, args.seed, args, true))
        .collect();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    println!(
        "\n{:<40} {}",
        "metric",
        cols(&names, |n| format!("{n:>16}"))
    );
    let first = results.iter().flatten().next();
    for (i, (metric, _)) in first.map_or(&[][..], |r| &r.metrics).iter().enumerate() {
        let row = cols(&results, |r| {
            match r.as_ref().and_then(|r| r.metrics.get(i)) {
                Some((_, v)) => format!("{v:>16.4}"),
                None => format!("{:>16}", "-"),
            }
        });
        println!("{metric:<40} {row}");
    }
    for (label, pick) in [
        ("attempted", (|r| r.attempted) as fn(&ResultLine) -> u64),
        ("failed", |r| r.failed),
    ] {
        let row = cols(&results, |r| format!("{:>16}", r.as_ref().map_or(0, pick)));
        println!("{label:<40} {row}");
    }
    if results
        .iter()
        .all(|r| r.as_ref().is_some_and(|r| r.correct))
    {
        ExitCode::SUCCESS
    } else {
        eprintln!("e2e: at least one workload failed or answered wrong");
        ExitCode::from(1)
    }
}

/// Runs per set in `--calibrate`.
const CALIBRATION_RUNS: usize = 5;

/// Two sets of [`CALIBRATION_RUNS`] runs of every workload on this build,
/// seeds `seed..seed+5` in each set. Per metric × workload: both medians,
/// their relative gap, the quartile spread of all runs as a share of the
/// median (the acceptance check's statistic), and a verdict against the
/// registered bound: `ok` when the bound is at least three times both,
/// `tight` when it covers both but not three times, `TOO NOISY` (and a
/// non-zero exit) when two sets of the same code differ by more than the
/// bound or the spread exceeds it. Set-up is judged on its medians alone;
/// the driver does not check its spread.
pub fn calibrate(args: &Args) -> ExitCode {
    let mut ok = true;
    println!("| workload | metric | median A | median B | gap | spread | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    for w in &WORKLOADS {
        // sets[set][metric] = values over the set's runs
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for set in &mut sets {
            for run in 0..CALIBRATION_RUNS {
                let Some(result) = child(w.name, args.seed + run as u64, args, false) else {
                    eprintln!("e2e: {} printed no result", w.name);
                    return ExitCode::from(1);
                };
                ok &= result.correct;
                for (slot, (_, v)) in set.iter_mut().zip(&result.metrics) {
                    slot.push(*v);
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (stats::median(&sets[0][i]), stats::median(&sets[1][i]));
            let gap = (a - b).abs() / a.min(b);
            let every: Vec<f64> = sets.iter().flat_map(|s| s[i].iter().copied()).collect();
            let spread = stats::spread(&every);
            let judged = if m.name == "setup_s" {
                gap
            } else {
                gap.max(spread)
            };
            let verdict = if 3.0 * judged <= m.bound {
                "ok"
            } else if judged <= m.bound {
                "tight"
            } else {
                ok = false;
                "TOO NOISY"
            };
            println!(
                "| {} | {} | {a:.4} | {b:.4} | {:.2}% | {:.2}% | {:.0}% | {verdict} |",
                w.name,
                m.name,
                gap * 100.0,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
