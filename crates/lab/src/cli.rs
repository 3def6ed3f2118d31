//! The `lab` command line: experiments, benchmark suites, traces,
//! profiles, the drive-model calculators and the digital twin.

use crate::engine::Engine;
use crate::experiment::{Experiment, Scale};
use crate::registry;

/// Parsed `lab` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Experiment names to run; empty means `list`.
    pub names: Vec<String>,
    /// Run everything in the registry.
    pub all: bool,
    /// Print the registry and exit.
    pub list: bool,
    /// Run benchmark suites instead of experiments; `names` holds the
    /// suite names (empty means every suite).
    pub bench: bool,
    /// Run instrumented trace scenarios instead of experiments.
    pub trace: bool,
    /// Digital-twin server/client mode; `names` holds the raw
    /// `twin ...` arguments.
    pub twin: bool,
    /// Drive-model calculator mode; `names` holds the raw `model ...`
    /// arguments.
    pub model: bool,
    /// Print the help text to stdout and exit 0.
    pub help: bool,
    /// Profile experiments (cache off) and print per-stage wall times.
    pub profile: bool,
    /// Worker threads.
    pub threads: usize,
    /// Serve/populate the content-addressed cache.
    pub use_cache: bool,
    /// Run simulation-heavy experiments at reduced scale.
    pub quick: bool,
    /// Progress-logging level (`-q` / default / `--verbose`).
    pub verbosity: diskobs::logger::Level,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            names: Vec::new(),
            all: false,
            list: false,
            bench: false,
            trace: false,
            twin: false,
            model: false,
            help: false,
            profile: false,
            threads: 1,
            use_cache: true,
            quick: false,
            verbosity: diskobs::logger::Level::Normal,
        }
    }
}

/// Parses CLI arguments (everything after the binary name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // Everything after `bench` names a suite, even a word that is
            // a subcommand elsewhere (`lab bench twin`).
            name if opts.bench && !name.starts_with('-') => opts.names.push(name.to_string()),
            // `lab run <experiment>` reads naturally in scripts; `run`
            // itself is a no-op — bare experiment names already run.
            "run" => {}
            "all" => opts.all = true,
            "list" => opts.list = true,
            "bench" => opts.bench = true,
            "trace" => opts.trace = true,
            "profile" => opts.profile = true,
            // The twin and model subcommands have their own flags
            // (`--addr`, `--diameter`, ...); hand the rest of the line
            // over verbatim.
            "twin" => {
                opts.twin = true;
                opts.names = args.collect();
                break;
            }
            "model" => {
                opts.model = true;
                opts.names = args.collect();
                break;
            }
            "--verbose" | "-v" => opts.verbosity = diskobs::logger::Level::Verbose,
            "--quiet" | "-q" => opts.verbosity = diskobs::logger::Level::Quiet,
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                opts.threads = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad thread count {v:?}"))?
                    .max(1);
            }
            "--no-cache" => opts.use_cache = false,
            "--quick" => opts.quick = true,
            "--help" | "-h" => opts.help = true,
            name if !name.starts_with('-') => opts.names.push(name.to_string()),
            other => return Err(format!("unknown flag {other:?} (try: lab --help)")),
        }
    }
    if !opts.all
        && !opts.list
        && !opts.bench
        && !opts.trace
        && !opts.profile
        && !opts.twin
        && !opts.model
        && !opts.help
        && opts.names.is_empty()
    {
        opts.list = true;
    }
    Ok(opts)
}

/// The help text.
pub fn usage() -> String {
    let suites: Vec<String> = crate::bench::SUITES
        .iter()
        .map(|s| format!("{} ({})", s.name, s.file))
        .collect();
    format!(
        "usage: lab [all | list | bench [<suite>...] | trace <scenario>... | profile [<experiment>...] |\n\
         \x20           model <verb> ... | twin serve|query ... | [run] <experiment>...]\n\
         \x20           [--threads N] [--no-cache] [--quick] [-q | --verbose]\n\n\
         twin serve [--addr A] [--enclosures N] [--workload W] [--checkpoint PATH]\n\
         starts the digital-twin what-if server (line-delimited JSON over TCP);\n\
         twin query --addr HOST:PORT '<json>' sends one request and prints the answer.\n\n\
         model capacity|thermal|design|analyze|workloads runs one drive-model\n\
         calculator (lab model with no verb prints its flags).\n\n\
         bench runs the named suites (every suite when none is named) and prints\n\
         each report as JSON; a full run writes each suite's BENCH_*.json at the\n\
         repo root, while --quick asserts the in-process bounds and diffs the\n\
         gated fields against the committed files.\n\n\
         trace runs an instrumented scenario and writes its event stream\n\
         (NDJSON), metrics, and snapshot timeseries under results/.\n\
         profile reruns experiments with the cache off and prints per-stage\n\
         wall times from the manifest.\n\n\
         experiments: {}\n\
         trace scenarios: {}\n\
         bench suites: {}",
        registry::names().join(", "),
        crate::trace::trace_names().join(", "),
        suites.join(", ")
    )
}

/// Runs a parsed command line against the workspace `results/`
/// directory. Returns a process exit code.
pub fn run(opts: &Options) -> i32 {
    diskobs::logger::set_level(opts.verbosity);
    if opts.help || opts.list {
        println!("{}", usage());
        return 0;
    }
    if opts.twin {
        return crate::twin_cli::run_twin(&opts.names);
    }
    if opts.model {
        return crate::model_cli::run_model(&opts.names);
    }
    if opts.bench {
        return run_bench_command(opts);
    }
    if opts.trace {
        return run_trace_command(opts);
    }
    if opts.profile {
        return run_profile_command(opts);
    }
    let scale = if opts.quick { Scale::Quick } else { Scale::Full };
    let Some(experiments) = select_experiments(&opts.names, opts.all, scale) else {
        return 2;
    };

    let engine = match Engine::workspace() {
        Ok(engine) => engine.threads(opts.threads).use_cache(opts.use_cache),
        Err(e) => {
            eprintln!("cannot open results directory: {e}");
            return 1;
        }
    };

    // Single-experiment runs keep the old binaries' behavior: the full
    // text report goes to stdout. Multi-experiment runs print a summary.
    let print_reports = !opts.all && experiments.len() == 1;
    match engine.run(experiments) {
        Ok(summary) => {
            if print_reports {
                for (_, text) in &summary.reports {
                    print!("{text}");
                }
            }
            let m = &summary.manifest;
            for entry in &m.experiments {
                diskobs::logger::info(&format!(
                    "{:<12} {:>9.1} ms  cache {:<4}  -> {}",
                    entry.name,
                    entry.wall_ms,
                    entry.cache,
                    entry.outputs.join(", ")
                ));
            }
            diskobs::logger::info(&format!(
                "{} experiments in {:.1} ms on {} thread(s); cache: {} hit(s), {} miss(es); wrote {}",
                m.experiments.len(),
                m.total_wall_ms,
                m.threads,
                m.hits(),
                m.misses(),
                engine.results_path().join("manifest.json").display(),
            ));
            0
        }
        Err(e) => {
            eprintln!("lab failed: {e}");
            1
        }
    }
}

/// The registered experiments `names` selects, or every one when `all`.
/// `None`, after one line on stderr, when a name is not registered.
fn select_experiments(
    names: &[String],
    all: bool,
    scale: Scale,
) -> Option<Vec<Box<dyn Experiment>>> {
    if all {
        return Some(registry::registry(scale));
    }
    names
        .iter()
        .map(|name| {
            let exp = registry::by_name(name, scale);
            if exp.is_none() {
                eprintln!("lab: unknown experiment {name:?} (run 'lab list' for the registry)");
            }
            exp
        })
        .collect()
}

/// `lab bench [<suite>...]` — run the named benchmark suites, or all of
/// them when none is named.
fn run_bench_command(opts: &Options) -> i32 {
    let mut suites = Vec::new();
    for name in &opts.names {
        match crate::bench::suite(name) {
            Some(suite) => suites.push(suite),
            None => {
                eprintln!("lab: unknown bench suite {name:?} (run 'lab list' for the suites)");
                return 2;
            }
        }
    }
    if suites.is_empty() {
        suites = crate::bench::SUITES.iter().collect();
    }
    match crate::bench::run(&suites, opts.quick) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench failed: {e}");
            1
        }
    }
}

/// `lab trace <scenario>...` — run instrumented scenarios and write
/// their event streams under `results/`.
fn run_trace_command(opts: &Options) -> i32 {
    if opts.names.is_empty() {
        eprintln!(
            "trace needs a scenario name (have: {})",
            crate::trace::trace_names().join(", ")
        );
        return 2;
    }
    let dir = match crate::text::results_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("cannot open results directory: {e}");
            return 1;
        }
    };
    for name in &opts.names {
        match crate::trace::run_trace(name, opts.threads, &dir) {
            Ok(outcome) => diskobs::logger::info(&format!(
                "trace {}: {} events, {} files",
                outcome.name,
                outcome.events,
                outcome.files.len()
            )),
            Err(e) => {
                eprintln!("trace {name} failed: {e}");
                return 1;
            }
        }
    }
    0
}

/// `lab profile [<experiment>...]` — rerun experiments with the cache
/// off into a scratch results directory and print the per-stage wall
/// times the engine's profiling spans recorded.
fn run_profile_command(opts: &Options) -> i32 {
    let scale = if opts.quick { Scale::Quick } else { Scale::Full };
    let Some(experiments) = select_experiments(&opts.names, opts.names.is_empty(), scale) else {
        return 2;
    };
    let dir = match crate::text::results_dir() {
        Ok(dir) => dir.join(".profile"),
        Err(e) => {
            eprintln!("cannot open results directory: {e}");
            return 1;
        }
    };
    let engine = Engine::at(dir).threads(opts.threads).use_cache(false);
    match engine.run(experiments) {
        Ok(summary) => {
            let m = &summary.manifest;
            println!("{:<14} {:>10}  stages", "experiment", "wall ms");
            for entry in &m.experiments {
                let stages = entry
                    .stages
                    .iter()
                    .map(|s| format!("{} {:.1} ms", s.name, s.wall_ms))
                    .collect::<Vec<_>>()
                    .join(", ");
                println!("{:<14} {:>10.1}  {}", entry.name, entry.wall_ms, stages);
            }
            println!(
                "{} experiments in {:.1} ms on {} thread(s), cache off",
                m.experiments.len(),
                m.total_wall_ms,
                m.threads
            );
            0
        }
        Err(e) => {
            eprintln!("profile failed: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        parse_args(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn parses_all_with_flags() {
        let opts = parse(&["all", "--threads", "8", "--no-cache", "--quick"]);
        assert!(opts.all);
        assert_eq!(opts.threads, 8);
        assert!(!opts.use_cache);
        assert!(opts.quick);
    }

    #[test]
    fn bare_invocation_lists() {
        assert!(parse(&[]).list);
    }

    #[test]
    fn bench_subcommand_parses() {
        let opts = parse(&["bench", "--quick"]);
        assert!(opts.bench);
        assert!(opts.quick);
        assert!(!opts.list);
    }

    #[test]
    fn bench_scenario_suite_parses_as_a_name() {
        let opts = parse(&["bench", "scenario", "--quick"]);
        assert!(opts.bench);
        assert_eq!(opts.names, ["scenario"]);
        assert!(opts.quick);
    }

    #[test]
    fn run_is_a_transparent_alias() {
        let opts = parse(&["run", "fleet_scaling", "--quick"]);
        assert_eq!(opts.names, ["fleet_scaling"]);
        assert!(opts.quick);
        assert!(!opts.list);
        assert_eq!(parse(&["run", "fleet_routing"]), parse(&["fleet_routing"]));
    }

    #[test]
    fn experiment_names_accumulate() {
        let opts = parse(&["figure1", "table3"]);
        assert_eq!(opts.names, ["figure1", "table3"]);
        assert!(!opts.all);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_threads() {
        assert!(parse_args(["--wat".to_string()]).is_err());
        assert!(parse_args(["--threads".to_string(), "zero?".to_string()]).is_err());
        assert_eq!(parse(&["--threads", "0"]).threads, 1);
    }

    #[test]
    fn usage_names_every_experiment() {
        let text = usage();
        for name in crate::registry::names() {
            assert!(text.contains(name), "{name} missing from usage");
        }
        for name in crate::trace::trace_names() {
            assert!(text.contains(name), "{name} missing from usage");
        }
        for suite in &crate::bench::SUITES {
            for word in [suite.name, suite.file] {
                assert!(text.contains(word), "{word} missing from usage");
            }
        }
    }

    #[test]
    fn trace_and_profile_subcommands_parse() {
        let opts = parse(&["trace", "figure5", "--threads", "4"]);
        assert!(opts.trace);
        assert!(!opts.list);
        assert_eq!(opts.names, ["figure5"]);
        assert_eq!(opts.threads, 4);

        let opts = parse(&["profile"]);
        assert!(opts.profile);
        assert!(!opts.list, "profile with no names means all experiments");
    }

    #[test]
    fn help_parses_instead_of_erroring() {
        assert!(parse(&["--help"]).help);
        assert!(parse(&["-h"]).help);
        assert!(!parse(&["--help"]).list, "help prints usage via its own path");
    }

    #[test]
    fn unknown_flags_fail_with_a_single_line() {
        let err = parse_args(["--wat".to_string()]).unwrap_err();
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        assert!(err.contains("--wat"));
    }

    #[test]
    fn twin_subcommand_passes_arguments_through_verbatim() {
        let opts = parse(&["twin", "serve", "--addr", "127.0.0.1:0", "--quick"]);
        assert!(opts.twin);
        assert_eq!(opts.names, ["serve", "--addr", "127.0.0.1:0", "--quick"]);
        assert!(!opts.quick, "twin flags are not lab flags");
        assert!(!opts.list);
    }

    #[test]
    fn bench_suite_names_shadow_subcommands() {
        let opts = parse(&["bench", "twin", "--quick"]);
        assert!(opts.bench);
        assert!(!opts.twin, "twin after bench names a suite");
        assert_eq!(opts.names, ["twin"]);
        assert!(opts.quick);
        let opts = parse(&["bench", "scenario", "model"]);
        assert_eq!(opts.names, ["scenario", "model"]);
    }

    #[test]
    fn model_subcommand_passes_arguments_through_verbatim() {
        let line = ["thermal", "--diameter", "2.6", "--quick", "bench"];
        let opts = parse(&[&["model"][..], &line].concat());
        assert!(opts.model);
        assert_eq!(opts.names, line);
        assert!(!opts.quick, "model flags are not lab flags");
        assert!(!opts.bench);
        assert!(!opts.list);
    }

    #[test]
    fn unknown_model_verbs_and_bench_suites_exit_2() {
        assert_eq!(run(&parse(&["model", "roadmap"])), 2);
        assert_eq!(run(&parse(&["model"])), 2);
        assert_eq!(run(&parse(&["bench", "thermal", "nope", "--quick"])), 2);
    }

    #[test]
    fn verbosity_flags_parse() {
        use diskobs::logger::Level;
        assert_eq!(parse(&[]).verbosity, Level::Normal);
        assert_eq!(parse(&["all", "-q"]).verbosity, Level::Quiet);
        assert_eq!(parse(&["all", "--quiet"]).verbosity, Level::Quiet);
        assert_eq!(parse(&["all", "--verbose"]).verbosity, Level::Verbose);
        assert_eq!(parse(&["all", "-v"]).verbosity, Level::Verbose);
    }
}
