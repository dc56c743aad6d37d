//! `ledger` — the repo benchmark. Five seeded workloads driven through the
//! public API of the workspace crates by one closed-loop client; every
//! metric printed by name with unit, direction and bound; answers checked
//! against a brute-force oracle; `--trace 1` for the per-layer numbers.
//! See README.md in this directory.
//!
//! ```text
//! ledger --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//!        [--smoke] [--out <file>] [--spans <file>]
//! ledger --all [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke] [--out <file>]
//! ledger --list | --manifest | --diff <A.jsonl> <B.jsonl>
//! ```

mod diff;
mod host;
mod json;
mod layers;
mod oracle;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::Write;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// The bare value of `--flag value`.
fn value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args.get(i + 1).map(|v| Some(v.as_str())).ok_or(format!("{flag} needs a value")),
    }
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match value(args, flag)? {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| format!("{flag}: cannot read {raw:?}")),
    }
}

/// Refuse to measure what the workloads did not prescribe.
fn guard() -> Result<(), String> {
    for var in [kmachine::ENGINE_ENV, kmachine::DELIVERY_ENV] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: Engine::run would swap the engine under every workload; unset it"
            ));
        }
    }
    if cfg!(debug_assertions) {
        return Err("debug build: measure optimized builds only (cargo run --release)".to_string());
    }
    Ok(())
}

fn append(path: &str, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))
}

fn real_main(args: &[String]) -> Result<bool, String> {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--list") {
        spec::print_list();
        return Ok(true);
    }
    if has("--manifest") {
        print!("{}", spec::manifest_json());
        return Ok(true);
    }
    if let Some(i) = args.iter().position(|a| a == "--diff") {
        let (a, b) = match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err("--diff needs two result files".to_string()),
        };
        return diff::print(a, b);
    }
    guard()?;
    let opts = run::Options {
        seed: parsed(args, "--seed", 1u64)?,
        seconds: parsed(args, "--seconds", spec::RUN_SECONDS as f64)?,
        trace: match value(args, "--trace")? {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke: has("--smoke"),
        spans: value(args, "--spans")?.map(str::to_string),
    };
    let names: Vec<&str> = match (has("--all"), value(args, "--workload")?) {
        (true, _) => spec::WORKLOADS.iter().map(|w| w.name).collect(),
        (false, Some(name)) => vec![name],
        (false, None) => return Err("give --workload <name>, --all, --list or --diff".to_string()),
    };
    let out = value(args, "--out")?;
    let mut all_correct = true;
    let mut last = String::new();
    for name in names {
        let outcome = run::run(name, &opts)?;
        outcome.print();
        if let Some(path) = out {
            append(path, &outcome.json(true))?;
        }
        all_correct &= outcome.correct;
        last = outcome.json(false);
    }
    // The benchmark contract: the result object is the last line of stdout.
    println!("{last}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ledger: outputs were wrong");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
