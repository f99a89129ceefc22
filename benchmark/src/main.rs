//! `lwt-benchmark`: four GLT workloads measured from outside the
//! runtimes, end to end and layer by layer. See `README.md`.
//!
//! ```text
//! lwt-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end set with `--trace 0`, the
//! per-layer set with `--trace 1`). The exit code is non-zero when an
//! output check failed or a slice produced nothing.

mod catalog;
mod gen;
mod probes;
mod run;
mod slice;
mod spans;
mod sys;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: lwt-benchmark --workload <spawn-join-fine|nested-grain|http-keepalive|\
                     echo-ult-paced> [--seed <u64>] [--seconds <n>] [--trace <0|1>]";

/// Flag values by name; every flag takes exactly one value.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse() -> Result<Flags, String> {
        let mut args = std::env::args().skip(1);
        let mut flags = Vec::new();
        while let Some(flag) = args.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            flags.push((name.to_string(), value));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot read {v}")),
        }
    }
}

fn real_main() -> Result<ExitCode, String> {
    let flags = Flags::parse()?;
    let workload = flags.get("workload").ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let seed: u64 = flags.num("seed", 1)?;
    let traced = match flags.num("trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: {other} is neither 0 nor 1")),
    };

    // The re-exec'd child of one slice.
    if let Some(backend) = flags.get("slice") {
        slice::main(&slice::SliceArgs {
            workload: workload.to_string(),
            backend: backend.to_string(),
            plan: workloads::Plan {
                seed,
                workers: flags.num("workers", sys::workers())?,
                warm: Duration::from_millis(flags.num("warm-ms", 300)?),
                measure: Duration::from_millis(flags.num("measure-ms", 1700)?),
                traced,
            },
            cpu: flags.num("cpu", 0)?,
            part: flags.get("part").map(Into::into),
        });
    }

    let seconds: f64 = flags.num("seconds", 30.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 600]"));
    }
    Ok(run::main(workload, seed, seconds, traced))
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("lwt-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
