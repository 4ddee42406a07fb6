//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all three in turn), prints a human-readable
//! summary, and ends with one JSON result line: the end-to-end metrics of
//! an untraced run, or the per-layer metrics of a traced one. Exits
//! non-zero when a check fails or the run could not complete.

use graphgen_perfbench::report::{END_TO_END, PER_LAYER};
use graphgen_perfbench::{run, RunCfg, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<(String, RunCfg), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((
        workload.clone(),
        RunCfg {
            workload,
            seed: seed.ok_or_else(usage)?,
            seconds: seconds.ok_or_else(usage)?,
            trace,
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, base) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let catalog = if base.trace { PER_LAYER } else { END_TO_END };
    let mut all_correct = true;
    for name in workloads {
        let cfg = RunCfg {
            workload: name.to_string(),
            ..base.clone()
        };
        let mut outcome = match run(&cfg) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if cfg.trace {
            // A layer the workload does not load did no work there.
            for def in PER_LAYER {
                outcome.metrics.entry(def.name).or_insert(0.0);
            }
        }
        for def in catalog {
            if let Some(v) = outcome.metrics.get(def.name) {
                println!("  = {:<32} {v} {}", def.name, def.unit);
            }
        }
        match outcome.json_line(catalog) {
            Ok(line) => println!("{line}"),
            Err(e) => {
                eprintln!("perfbench {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
        all_correct &= outcome.correct;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed");
        ExitCode::FAILURE
    }
}
