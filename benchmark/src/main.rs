//! `cfc-benchmark`: one benchmark for the whole ladder.
//!
//! Driver mode (what `BENCHMARK.json`'s command runs, one process per
//! workload):
//!
//! ```text
//! cfc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Suite modes (each spawns one driver-mode child per workload and run):
//! `run`, `trace`, `check`, and `list`. See `README.md`.

mod host;
mod json;
mod ladder;
mod refclock;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;
mod world;

use std::process::ExitCode;
use std::time::Instant;

use json::Reported;
use refclock::{RefClock, Runs};
use workloads::{median_of, Paced, ReadPath, Seconds, World};
use world::{Scale, Tally};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Share of a read workload's run spent reading; it writes and decodes its
/// archive for the rest.
const READ_SHARE: f64 = 0.7;

/// Parsed command line of one driver-mode run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

fn usage() -> String {
    "usage: cfc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
     \x20      cfc-benchmark run|trace|check [--seed <n>] [--smoke]\n\
     \x20      cfc-benchmark list [--json]"
        .to_string()
}

/// `--key value` pairs and bare flags after the optional mode word.
fn flag<'a>(args: &'a [String], key: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or(format!("{key} needs a value")),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let name = flag(args, "--workload")?.ok_or("--workload is required")?;
    let workload = spec::workload(name)
        .ok_or(format!("unknown workload {name}; `list` names them"))?
        .name;
    let num = |key: &str| -> Result<f64, String> {
        flag(args, key)?
            .ok_or(format!("{key} is required"))?
            .parse::<f64>()
            .map_err(|_| format!("{key} is not a number"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(RunArgs {
        workload,
        seed: flag(args, "--seed")?
            .ok_or("--seed is required")?
            .parse()
            .map_err(|_| "--seed is not a whole number")?,
        seconds,
        trace: match flag(args, "--trace")?.ok_or("--trace is required")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace is 0 or 1".into()),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// One untraced run: set up [`SETUPS`] times, time one window, report
/// every end-to-end metric. Timings are in reference seconds (see
/// `refclock`); the wall-clock values go to stderr beside them.
fn end_to_end(args: &RunArgs, tally: &mut Tally) -> Result<Vec<Reported>, String> {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    // set-up generates on one thread and builds on the pool
    let mut clock = RefClock::new(host::nproc());
    let mut tick = clock.tick();
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..if args.smoke { 1 } else { SETUPS } {
        drop(world.take());
        let t = Instant::now();
        let w = World::setup(args.workload, scale, args.seed, tally)?;
        let wall = t.elapsed().as_secs_f64();
        let after = clock.tick();
        setup_s.push(Paced::between(wall, tick, after, Runs::Pooled));
        tick = after;
        world = Some(w);
    }
    drop(clock);
    let world = world.expect("at least one set-up");

    // a write workload times write and decode in every cycle; a read
    // workload's window writes nothing, so it reads for READ_SHARE of the
    // run and writes and decodes its archive for the rest
    let writes = matches!(world.path, ReadPath::Memory);
    let window_s = if writes {
        args.seconds
    } else {
        args.seconds * READ_SHARE
    };
    let (mut samples, _) = world.window(window_s, args.seed, false, tally)?;
    if !writes {
        let rest = if args.smoke {
            0.0
        } else {
            args.seconds - window_s
        };
        world.rebuild_for(rest, &mut samples, tally);
    }

    let a = &world.archive;
    let peak_rss_mb = host::peak_rss_mb().ok_or("VmHWM is not readable from /proc/self/status")?;
    let values = |seconds: Seconds| {
        [
            median_of(&setup_s, seconds),
            a.raw_mb() / median_of(&samples.write_s, seconds),
            a.raw_mb() / median_of(&samples.decode_s, seconds),
            a.written.ratio(),
            a.xf_gain,
            a.psnr_db,
            median_of(&samples.read_p50_ms, seconds),
            samples.generators.max(1) as f64 / median_of(&samples.read_s_per_mb, seconds),
            peak_rss_mb,
        ]
    };
    eprintln!(
        "{}: {} timed ops, {:.2} s inside them; {} write, {} decode samples, {} reads in {} segments; \
         median tick {:.2} x nominal",
        args.workload,
        samples.ops,
        samples.busy_s,
        samples.write_s.len(),
        samples.decode_s.len(),
        samples.read_ms.len(),
        samples.read_p50_ms.len(),
        stats::median(&samples.slowdown)
    );
    let wall: Vec<String> = spec::END_TO_END
        .iter()
        .zip(values(Seconds::Wall))
        .map(|(m, v)| format!("{}={v:.6}", m.name))
        .collect();
    eprintln!(
        "{}: by the wall (not reported): {}",
        args.workload,
        wall.join(" ")
    );
    Ok(spec::END_TO_END
        .iter()
        .zip(values(Seconds::Reference))
        .map(|(m, value)| Reported {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect())
}

/// Driver mode: run one workload, print the result line last. A failed
/// check still emits the metrics, names the failing ops on stderr and
/// exits non-zero; so does an `Err` that ends the run early, which counts
/// as one more failed operation and leaves every metric unmeasured.
fn drive(args: &RunArgs) -> ExitCode {
    let mut tally = Tally::default();
    let outcome = if args.trace {
        ladder::per_layer(args, &mut tally)
    } else {
        end_to_end(args, &mut tally)
    };
    let metrics = tally
        .pass(outcome, || args.workload.to_string())
        .unwrap_or_else(|| {
            let specs: &[spec::MetricSpec] = if args.trace {
                &spec::PER_LAYER
            } else {
                &spec::END_TO_END
            };
            let unmeasured = |m: &spec::MetricSpec| Reported {
                name: m.name,
                value: f64::NAN,
                unit: m.unit,
            };
            specs.iter().map(unmeasured).collect()
        });
    for note in &tally.notes {
        eprintln!("FAILED {note}");
    }
    println!(
        "{}",
        json::result_line(tally.attempted, tally.failed, &metrics)
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {} of {} operations failed",
            args.workload, tally.failed, tally.attempted
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            suite::list(args.iter().any(|a| a == "--json"));
            Ok(ExitCode::SUCCESS)
        }
        Some(mode @ ("run" | "trace" | "check")) => suite::run(mode, &args[1..]),
        Some(_) => parse_run_args(&args)
            .map(|a| drive(&a))
            .map_err(|e| format!("{e}\n{}", usage())),
        None => Err(usage()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
