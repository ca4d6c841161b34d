//! The repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload where-read|crud-w30|table2-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! every per-layer metric, the end-to-end metric each should move, and
//! the self time of every span. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. The
//! exit code is non-zero when any walk had a wrong outcome.

mod calib;
mod check;
mod layers;
mod report;
mod run;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use workload::Kind;

/// Where run files go, relative to the directory the benchmark runs in:
/// the native backend's block files and the span log.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A per-process directory for the native backend's temporary block
/// files, removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        let dir = std::env::current_dir()?
            .join(OUT_DIR)
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        // `BlockFile::temp` creates its files under the temp directory;
        // keep them inside the benchmark's own directory. No other
        // thread exists yet.
        std::env::set_var("TMPDIR", &dir);
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_spans(path: &Path, jsonl: &str) {
    if let Err(e) = std::fs::write(path, jsonl) {
        eprintln!("warning: could not write spans to {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload where-read|crud-w30|table2-sweep --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let run_dir = match RunDir::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create {OUT_DIR}: {e}");
            std::process::exit(2);
        }
    };
    let kind = args.workload;
    let size = kind.size();
    println!(
        "# {} seed {} for {} s, trace {}: closed loop, one caller; each run_design call on one \
         worker with IX-cache and modelled caches empty at its start; OS page cache warm; \
         times are this host's, not a device's",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# input: {} keys and {} walks per roster entry",
        size.keys, size.walks
    );
    let out = if args.trace {
        run::traced(kind, size, args.seed, args.seconds)
    } else {
        run::untraced(kind, size, args.seed, args.seconds)
    };
    if args.trace {
        println!("# span self times: name, calls, total ms, self ms");
        for (name, t) in out.tracer.self_times() {
            println!(
                "#   {name:<40} {:>6} {:>12.3} {:>12.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path =
            Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", kind.name(), args.seed));
        write_spans(&path, &out.tracer.to_jsonl());
        println!("# spans written to {}", path.display());
    }
    for note in &out.notes {
        println!("# {note}");
    }
    for note in &out.checker.notes {
        println!("# FAILED CHECK: {note}");
    }
    report::print(
        &out.metrics,
        args.trace,
        out.checker.attempted,
        out.checker.failed,
    );
    drop(run_dir);
    std::process::exit(out.checker.exit_code());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload crud-w30 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Kind::CrudW30);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload where-read --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload where-read --seed 1 --seconds 1").is_err());
        assert!(args("--workload where-read --seed x --seconds 1 --trace 0").is_err());
    }
}
