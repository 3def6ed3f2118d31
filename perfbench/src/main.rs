//! End-to-end and per-layer benchmark of the simulation stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload through the crates' public APIs. A
//! run repeats a short, fixed amount of work (set-up, then the timed
//! phase, then the what-ifs) until `--seconds` have passed, at least
//! three times, and reports each time from the fastest repetitions
//! (see [`fast`]), leaving out the first, which runs cold. With
//! `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it also runs the timed phase with a span around every
//! call into a layer and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod fleet_wl;
mod host;
mod trace;
mod twin_wl;

use diskscenario::EpochSample;
use fleet_wl::{FleetSize, FleetWorkload, Kind};
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;
use twin_wl::{TwinSize, TwinWorkload};

/// Repetitions every run makes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Leading repetitions that are checked but left out of the metrics:
/// the first one in a process runs slower than the rest.
const WARMUP_REPS: usize = 1;
/// Fastest samples a time is taken from: `setup_s` and `wall_s` are the
/// median of the fastest [`FAST_REPS`] repetitions, and every what-if
/// contributes its fastest [`FAST_ANSWERS`] answers to the pool the
/// what-if percentiles come from. On a shared 2-vCPU host the same work
/// runs up to 1.7x slow for stretches of a fraction of a second to
/// minutes, covering anywhere from none to all of a run; the fastest
/// samples of a run track the program rather than the neighbours, and
/// a median of several keeps one lucky sample out.
const FAST_REPS: usize = 5;
const FAST_ANSWERS: usize = 5;
/// Shards of the hall's traced parallel pass. Untraced runs use one
/// thread: at two, a repetition runs at normal speed only while both
/// vCPUs do, and the hall's `wall_s` ranged over 40% between runs.
const HALL_THREADS: usize = 2;

pub const WORKLOADS: [&str; 4] = [
    "hall_diurnal",
    "rebuild_storm",
    "storm_recorded",
    "twin_whatif",
];

/// One repetition's measurements and checks.
pub struct Rep {
    pub setup_s: f64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Simulated outputs; every repetition of one seed must agree.
    pub digest: String,
    /// Latency of each what-if, in the order asked. Every repetition of
    /// one seed asks the same what-ifs in the same order.
    pub whatif_ms: Vec<f64>,
    /// `run_scenario`'s per-epoch samples (fleet workloads).
    pub samples: Vec<EpochSample>,
}

/// Everything a run prints in its final line.
pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Linear-interpolated percentile of unsorted values (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `n` smallest values, ascending (all of them if there are fewer).
fn fastest(values: &[f64], n: usize) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(n);
    v
}

/// A time as the program runs it on an uncontended host: the median of
/// the fastest [`FAST_REPS`] samples.
fn fast(values: &[f64]) -> f64 {
    median(&fastest(values, FAST_REPS))
}

/// The what-if pool: the fastest [`FAST_ANSWERS`] answers of each
/// what-if, the `i`-th of every repetition being the same question.
fn whatif_pool(reps: &[Rep]) -> Vec<f64> {
    let asked = reps.iter().map(|r| r.whatif_ms.len()).max().unwrap_or(0);
    (0..asked)
        .flat_map(|i| {
            let answers: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.whatif_ms.get(i).copied())
                .collect();
            fastest(&answers, FAST_ANSWERS)
        })
        .collect()
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

enum Workload {
    Fleet(FleetWorkload),
    Twin(TwinWorkload),
}

impl Workload {
    fn new(name: &str, seed: u64, tiny: bool) -> Result<Self, String> {
        let fleet = |kind| {
            let size = if tiny {
                FleetSize::tiny()
            } else {
                FleetSize::full(kind)
            };
            Workload::Fleet(FleetWorkload { kind, seed, size })
        };
        Ok(match name {
            "hall_diurnal" => fleet(Kind::Hall),
            "rebuild_storm" => fleet(Kind::Storm),
            "storm_recorded" => fleet(Kind::StormRecorded),
            "twin_whatif" => Workload::Twin(TwinWorkload {
                seed,
                size: if tiny {
                    TwinSize::tiny()
                } else {
                    TwinSize::full()
                },
            }),
            _ => {
                return Err(format!(
                    "unknown workload {name:?}; expected one of {WORKLOADS:?}"
                ))
            }
        })
    }

    /// One untraced repetition on one thread; the assembled instance is
    /// dropped before the next one is built.
    fn rep(&self) -> Result<Rep, String> {
        match self {
            Workload::Fleet(w) => w.rep(1).map(|(rep, _)| rep),
            Workload::Twin(w) => w.rep().map(|(rep, _)| rep),
        }
    }
}

/// Untraced repetitions until `seconds` have passed (at least
/// [`MIN_REPS`]). Every repetition must reproduce the first one's
/// simulated outputs.
fn repeat(wl: &Workload, seconds: f64, log: &mut String) -> Result<Vec<Rep>, String> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Each repetition runs on the next allowed CPU.
    let cpus = host::allowed_cpus();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        if !cpus.is_empty() {
            host::pin(1 << cpus[reps.len() % cpus.len()]);
        }
        let rep = wl.rep();
        if !cpus.is_empty() {
            host::pin(cpus.iter().map(|c| 1u64 << c).sum());
        }
        let mut rep = rep?;
        let _ = writeln!(
            log,
            "rep {}: setup_s={:.4} wall_s={:.4} whatif_ms={:.2} attempted={} failed={}",
            reps.len(),
            rep.setup_s,
            rep.wall_s,
            rep.whatif_ms.iter().sum::<f64>(),
            rep.attempted,
            rep.failed
        );
        if let Some(first) = reps.first() {
            if rep.digest != first.digest || rep.samples != first.samples {
                rep.failed += 1;
                rep.failures
                    .push(format!("rep {} digest {} differs", reps.len(), rep.digest));
            }
        }
        reps.push(rep);
    }
    let _ = writeln!(log, "digest {}", reps[0].digest);
    for f in reps.iter().flat_map(|r| &r.failures).take(5) {
        let _ = writeln!(log, "failure: {f}");
    }
    Ok(reps)
}

/// `wall_s` of every repetition after the warm-up.
fn walls(reps: &[Rep]) -> Vec<f64> {
    reps[WARMUP_REPS..].iter().map(|r| r.wall_s).collect()
}

fn end_to_end(wl: &Workload, seconds: f64, log: &mut String) -> Result<Output, String> {
    let reps = repeat(wl, seconds, log)?;
    let measured = &reps[WARMUP_REPS..];
    let setup: Vec<f64> = measured.iter().map(|r| r.setup_s).collect();
    let whatif = whatif_pool(measured);
    let _ = writeln!(
        log,
        "reps={} whatifs asked={} pooled={}",
        reps.len(),
        measured.iter().map(|r| r.whatif_ms.len()).sum::<usize>(),
        whatif.len()
    );
    Ok(Output {
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        metrics: vec![
            ("setup_s", fast(&setup), "s"),
            ("wall_s", fast(&walls(&reps)), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
            ("whatif_p50_ms", percentile(&whatif, 50.0), "ms"),
            ("whatif_p95_ms", percentile(&whatif, 95.0), "ms"),
        ],
    })
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("workloads.read_trace_ms", "ms"),
    ("workloads.draw_ns", "ns"),
    ("scenario.apply_epoch_us", "us"),
    ("fleet.new_ms", "ms"),
    ("fleet.offer_ns", "ns"),
    ("fleet.step_ms_p50", "ms"),
    ("fleet.step_ms_p99", "ms"),
    ("fleet.parallel_ms", "ms"),
    ("fleet.serial_ms", "ms"),
    ("fleet.serial_fraction", "fraction"),
    ("fleet.shard_speedup", "x"),
    ("fleet.windows_per_s", "1/s"),
    ("fleet.requests_per_s", "1/s"),
    ("fleet.report_ms", "ms"),
    ("fleet.completed", "count"),
    ("fleet.engaged_max", "count"),
    ("fleet.rebuild_sectors", "count"),
    ("dtm.windows", "count"),
    ("obs.events", "count"),
    ("obs.bytes", "bytes"),
    ("obs.ns_per_event", "ns"),
    ("obs.overhead_pct", "%"),
    ("twin.advance_ms", "ms"),
    ("twin.capture_ms", "ms"),
    ("twin.encode_ms", "ms"),
    ("twin.decode_ms", "ms"),
    ("twin.restore_ms", "ms"),
    ("twin.state_bytes", "bytes"),
    ("twin.whatif_fork_ms", "ms"),
    ("twin.whatif_sim_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Traced passes a traced run makes; the per-layer metrics come from the
/// fastest, as the untraced times come from the fastest repetitions.
const TRACED_PASSES: usize = 5;

/// Runs `pass` [`TRACED_PASSES`] times and keeps the result whose timed
/// phase, less its checks, was shortest.
fn fastest_pass<T>(
    mut pass: impl FnMut() -> Result<(Tracer, T), String>,
) -> Result<(Tracer, T), String> {
    let timed = |tr: &Tracer| tr.total_ms("bench.timed") - tr.total_ms("bench.check");
    let mut best = pass()?;
    for _ in 1..TRACED_PASSES {
        let next = pass()?;
        if timed(&next.0) < timed(&best.0) {
            best = next;
        }
    }
    Ok(best)
}

/// Untraced repetitions for the baseline wall time, then the traced
/// passes; the per-layer metrics come from the fastest one's spans.
fn traced(wl: &Workload, seconds: f64, log: &mut String) -> Result<(Output, Tracer), String> {
    let reps = repeat(wl, seconds / 2.0, log)?;
    let untraced_wall = fast(&walls(&reps));
    let mut values: Vec<(&str, f64)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    let mut tr;
    match wl {
        Workload::Fleet(w) => {
            let (main_tr, (inst, pass)) = fastest_pass(|| {
                let mut tr = Tracer::new(true);
                let s = tr.enter("bench.setup");
                let mut inst = w.setup(1, &mut tr)?;
                tr.exit(s);
                let pass = w.traced_pass(&mut inst, &mut tr)?;
                if pass.samples != reps[0].samples {
                    failures.push("traced samples differ from run_scenario's".into());
                }
                failures.extend(pass.failures.iter().cloned());
                attempted += pass.offered;
                Ok((tr, (inst, pass)))
            })?;
            tr = main_tr;
            let epochs = w.size.epochs as f64;
            let step_s = tr.total_ms("fleet.step_epoch") / 1e3;
            let windows =
                (w.enclosures() * inst.windows_per_epoch) as f64 * pass.profile.epochs as f64;
            let last = pass.samples.last().copied();
            values.extend(fleet_wl::pass_metrics(&pass, &tr));
            values.extend([
                (
                    "workloads.read_trace_ms",
                    tr.total_ms("workloads.read_trace"),
                ),
                (
                    "workloads.draw_ns",
                    tr.total_ms("workloads.draw") * 1e6
                        / tr.count_of("workloads.draw").max(1) as f64,
                ),
                (
                    "scenario.apply_epoch_us",
                    tr.total_ms("scenario.apply_epoch") * 1e3 / epochs,
                ),
                ("fleet.new_ms", tr.total_ms("fleet.new")),
                (
                    "fleet.offer_ns",
                    tr.total_ms("fleet.offer") * 1e6 / tr.count_of("fleet.offer").max(1) as f64,
                ),
                ("fleet.windows_per_s", windows / step_s),
                ("fleet.report_ms", median(&tr.durations_ms("fleet.report"))),
                ("fleet.completed", last.map_or(0, |s| s.completed) as f64),
                (
                    "fleet.engaged_max",
                    pass.samples.iter().map(|s| s.engaged).max().unwrap_or(0) as f64,
                ),
                (
                    "fleet.rebuild_sectors",
                    last.map_or(0, |s| s.rebuild_done) as f64,
                ),
                ("dtm.windows", windows),
            ]);
            let wall = tr.total_ms("bench.timed") - tr.total_ms("bench.check");
            values.push((
                "bench.trace_overhead_pct",
                (wall / 1e3 / untraced_wall - 1.0) * 100.0,
            ));

            // A second traced pass over the same inputs: the hall at two
            // shards (measured shard speedup and the parallel path's phase
            // split), the recorded storm without its recorder (recording
            // cost per event).
            let other = match w.kind {
                Kind::Hall => Some((
                    FleetWorkload {
                        kind: Kind::Hall,
                        ..*w
                    },
                    HALL_THREADS,
                )),
                Kind::StormRecorded => Some((
                    FleetWorkload {
                        kind: Kind::Storm,
                        ..*w
                    },
                    1,
                )),
                Kind::Storm => None,
            };
            if let Some((ow, threads)) = other {
                let (tr2, pass2) = fastest_pass(|| {
                    let mut tr2 = Tracer::new(true);
                    let mut inst2 = ow.setup(threads, &mut Tracer::new(false))?;
                    let pass2 = ow.traced_pass(&mut inst2, &mut tr2)?;
                    if pass2.samples != pass.samples {
                        failures.push("comparison pass samples differ from the main pass".into());
                    }
                    Ok((tr2, pass2))
                })?;
                let step2_s = tr2.total_ms("fleet.step_epoch") / 1e3;
                if w.kind == Kind::Hall {
                    values.extend([
                        ("fleet.shard_speedup", step_s / step2_s),
                        ("fleet.parallel_ms", pass2.profile.parallel_ms),
                        ("fleet.serial_ms", pass2.profile.serial_ms),
                        ("fleet.serial_fraction", pass2.profile.serial_fraction()),
                    ]);
                } else {
                    let counter = inst
                        .counter
                        .as_ref()
                        .expect("the recorded storm counts bytes");
                    values.extend([
                        ("obs.events", counter.lines() as f64),
                        ("obs.bytes", counter.bytes() as f64),
                        (
                            "obs.ns_per_event",
                            (step_s - step2_s) * 1e9 / counter.lines().max(1) as f64,
                        ),
                        ("obs.overhead_pct", (step_s / step2_s - 1.0) * 100.0),
                    ]);
                }
            }
            let _ = writeln!(
                log,
                "digest(traced) {}",
                fleet_wl::digest(&inst.fleet, &pass.samples)
            );
        }
        Workload::Twin(w) => {
            let (main_tr, inst) = fastest_pass(|| {
                let mut tr = Tracer::new(true);
                let s = tr.enter("bench.setup");
                let mut inst = w.setup(&mut tr)?;
                tr.exit(s);
                let (_, fails) = w.timed(&mut inst, &mut tr)?;
                failures.extend(fails);
                attempted += w.size.ops as u64;
                Ok((tr, inst))
            })?;
            tr = main_tr;
            w.rebuild_whatifs(&inst, &mut tr)?;
            let checkpoints = tr.count_of("twin.checkpoints").max(1);
            let fleet = inst.twin.fleet();
            values.extend([
                (
                    "twin.advance_ms",
                    median(&tr.durations_ms("twin.advance_epoch")),
                ),
                (
                    "twin.capture_ms",
                    median(&tr.durations_ms("twin.capture_state")),
                ),
                ("twin.encode_ms", median(&tr.durations_ms("twin.encode"))),
                ("twin.decode_ms", median(&tr.durations_ms("twin.decode"))),
                (
                    "twin.restore_ms",
                    median(&tr.durations_ms("twin.restore_state")),
                ),
                (
                    "twin.state_bytes",
                    (tr.count_of("twin.state_bytes") / checkpoints) as f64,
                ),
                (
                    "twin.whatif_fork_ms",
                    median(&tr.durations_ms("twin.whatif_fork")),
                ),
                (
                    "twin.whatif_sim_ms",
                    median(&tr.durations_ms("twin.whatif_sim")),
                ),
                ("fleet.report_ms", median(&tr.durations_ms("fleet.report"))),
                ("fleet.completed", fleet.stats().count() as f64),
                ("fleet.engaged_max", fleet.engaged_count() as f64),
            ]);
            let wall = tr.total_ms("bench.timed") / 1e3;
            values.push((
                "bench.trace_overhead_pct",
                (wall / untraced_wall - 1.0) * 100.0,
            ));
        }
    }

    let timed_ms = tr.total_ms("bench.timed");
    // The loop-body spans wrap each epoch or operation; their direct
    // children are the per-layer spans.
    let body = match wl {
        Workload::Fleet(_) => "bench.epoch",
        Workload::Twin(_) => "bench.op",
    };
    let _ = writeln!(
        log,
        "traced: layer spans cover {:.2}% of {body} ({:.1} ms timed phase)",
        tr.coverage(body) * 100.0,
        timed_ms
    );
    let _ = writeln!(
        log,
        "{:<26} {:>8} {:>12} {:>12} {:>8}",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    for row in tr.summary() {
        let _ = writeln!(
            log,
            "{:<26} {:>8} {:>12.3} {:>12.3} {:>7.2}%",
            row.name,
            row.calls,
            row.total_ms,
            row.self_ms,
            row.self_ms / timed_ms * 100.0
        );
    }
    for f in failures.iter().take(5) {
        let _ = writeln!(log, "failure: {f}");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect();
    let failed = failures.len() as u64 + reps.iter().map(|r| r.failed).sum::<u64>();
    Ok((
        Output {
            attempted: attempted + reps.iter().map(|r| r.attempted).sum::<u64>(),
            failed,
            metrics,
        },
        tr,
    ))
}

/// Runs one workload and returns its result line's contents plus the
/// human-readable log printed above it.
pub fn run(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
) -> Result<(Output, String, Option<Tracer>), String> {
    let wl = Workload::new(name, seed, tiny)?;
    let mut log = format!(
        "workload={name} seed={seed} seconds={seconds} trace={}\n",
        u8::from(trace)
    );
    if trace {
        let (out, tr) = traced(&wl, seconds, &mut log)?;
        Ok((out, log, Some(tr)))
    } else {
        let out = end_to_end(&wl, seconds, &mut log)?;
        Ok((out, log, None))
    }
}

fn result_line(out: &Output) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Also maps -0.0 (an empty f64 sum) to 0.0.
        let value = if value.is_finite() && *value != 0.0 {
            *value
        } else {
            0.0
        };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    line
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args.workload, args.seed, args.seconds, args.trace, false) {
        Ok((out, log, tracer)) => {
            print!("{log}");
            if let Some(tr) = tracer {
                let dir = std::path::Path::new("perfbench-out");
                let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
                match std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&path, tr.to_json()))
                {
                    Ok(()) => println!("spans written to {}", path.display()),
                    Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
                }
            }
            println!("{}", result_line(&out));
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric one section of `BENCHMARK.json`
    /// declares, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(|v| v.as_array())
            .expect("the section is a list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_workload_emits_every_declared_metric_with_its_unit() {
        for name in WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let (out, log, _) = run(name, 5, 0.0, trace, true).expect("a reduced run succeeds");
                let got: Vec<(String, String)> = out
                    .metrics
                    .iter()
                    .map(|(n, _, u)| (n.to_string(), u.to_string()))
                    .collect();
                assert_eq!(got, declared(section), "{name} trace={trace}");
                assert_eq!(out.failed, 0, "{name} trace={trace}:\n{log}");
                assert!(out.attempted > 0);
                let line: serde_json::Value =
                    serde_json::from_str(&result_line(&out)).expect("the result line is JSON");
                for key in ["correct", "attempted", "failed", "metrics"] {
                    assert!(line.get(key).is_some(), "{key} missing");
                }
            }
        }
    }

    fn rep_with(wall_s: f64, whatif_ms: Vec<f64>) -> Rep {
        Rep {
            setup_s: 0.0,
            wall_s,
            attempted: 1,
            failed: 0,
            failures: Vec::new(),
            digest: String::new(),
            whatif_ms,
            samples: Vec::new(),
        }
    }

    #[test]
    fn fast_times_skip_slow_stretches_and_one_lucky_sample() {
        let mut walls = vec![1.7; 40];
        walls.extend([1.02, 1.0, 1.04, 1.01, 1.03, 0.5]);
        assert_eq!(fast(&walls), 1.01);
        assert_eq!(fast(&[2.0, 1.0]), 1.5);
    }

    #[test]
    fn the_whatif_pool_keeps_each_questions_fastest_answers() {
        // Two questions, a cheap and a dear one, answered at normal speed
        // in some repetitions and 1.7x slow in the rest.
        let reps: Vec<Rep> = (0..30)
            .map(|i| {
                let slow = if i % 3 == 0 { 1.0 } else { 1.7 };
                rep_with(0.0, vec![2.0 * slow, 10.0 * slow])
            })
            .collect();
        let pool = whatif_pool(&reps);
        assert_eq!(pool.len(), 2 * FAST_ANSWERS);
        assert_eq!(pool.iter().filter(|&&v| v == 2.0).count(), FAST_ANSWERS);
        assert_eq!(pool.iter().filter(|&&v| v == 10.0).count(), FAST_ANSWERS);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert!((percentile(&[1.0, 2.0, 3.0, 4.0], 95.0) - 3.85).abs() < 1e-12);
    }
}
