//! `lab twin` — the CLI front end for the digital-twin what-if server.
//!
//! `lab twin serve` boots a [`disktwin::TwinServer`] and prints the
//! bound address (scripts read the ephemeral port from that line);
//! `lab twin query` sends one JSON request line and prints the answer.

use disktwin::{query_line, ServerConfig, Twin, TwinConfig, TwinServer};
use std::io::Write;
use std::time::Duration;

/// One-line usage for `lab twin` errors.
const TWIN_USAGE: &str = "usage: lab twin serve [--addr A] [--enclosures N] [--workload W] \
     [--checkpoint PATH] [--epoch-ms N] [--max-inflight N] | \
     lab twin query --addr HOST:PORT '<json>'";

/// Runs the `twin` subcommand. Returns a process exit code; every
/// failure is one line on stderr.
pub fn run_twin(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("serve") => match serve(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("lab twin serve: {e}");
                2
            }
        },
        Some("query") => match query(&args[1..]) {
            Ok(answer) => {
                println!("{answer}");
                // Typed server-side errors still print, but scripts see
                // a nonzero exit.
                if answer.starts_with("{\"error\"") {
                    1
                } else {
                    0
                }
            }
            Err(e) => {
                eprintln!("lab twin query: {e}");
                2
            }
        },
        Some(other) => {
            eprintln!("lab twin: unknown action {other:?} ({TWIN_USAGE})");
            2
        }
        None => {
            eprintln!("lab twin: missing action ({TWIN_USAGE})");
            2
        }
    }
}

/// Resolves a workload preset by its short CLI name.
fn workload_by_key(key: &str) -> Result<workloads::WorkloadPreset, String> {
    workloads::preset_by_key(key).ok_or_else(|| {
        format!(
            "unknown workload {:?} (have: openmail, oltp, search, tpcc, tpch)",
            key.to_ascii_lowercase()
        )
    })
}

/// Parses the value that follows `flag`, naming the flag in the error.
pub(crate) fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServerConfig::default();
    let mut enclosures = 4usize;
    let mut workload = workloads::oltp();
    let mut seed = 42u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = parse_flag(arg, it.next())?,
            "--enclosures" => enclosures = parse_flag(arg, it.next())?,
            "--workload" => workload = workload_by_key(&parse_flag::<String>(arg, it.next())?)?,
            "--seed" => seed = parse_flag(arg, it.next())?,
            "--checkpoint" => {
                cfg.checkpoint_path = Some(parse_flag::<String>(arg, it.next())?.into());
            }
            "--epoch-ms" => cfg.epoch_interval_ms = parse_flag(arg, it.next())?,
            "--max-inflight" => cfg.max_inflight = parse_flag(arg, it.next())?,
            "--history" => cfg.snapshot_history = parse_flag(arg, it.next())?,
            other => return Err(format!("unknown flag {other:?} ({TWIN_USAGE})")),
        }
    }
    let mut twin_cfg = TwinConfig::preset(workload, enclosures);
    twin_cfg.seed = seed;
    let twin = Twin::new(twin_cfg).map_err(|e| e.to_string())?;
    let server = TwinServer::start(twin, cfg).map_err(|e| e.to_string())?;
    // Scripts parse this line for the ephemeral port; flush so it is
    // visible before the server blocks.
    println!("twin listening on {}", server.addr());
    std::io::stdout().flush().ok();
    server.join();
    Ok(())
}

fn query(args: &[String]) -> Result<String, String> {
    let mut addr: Option<String> = None;
    let mut timeout_ms = 120_000u64;
    let mut line: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = Some(parse_flag(arg, it.next())?),
            "--timeout-ms" => timeout_ms = parse_flag(arg, it.next())?,
            other if !other.starts_with('-') => {
                if line.replace(other.to_string()).is_some() {
                    return Err("exactly one JSON request line expected".into());
                }
            }
            other => return Err(format!("unknown flag {other:?} ({TWIN_USAGE})")),
        }
    }
    let addr = addr.ok_or("--addr HOST:PORT is required")?;
    let line = line.ok_or("a JSON request line is required")?;
    query_line(&addr, &line, Duration::from_millis(timeout_ms)).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_actions_and_missing_args_fail_with_code_2() {
        assert_eq!(run_twin(&["frobnicate".to_string()]), 2);
        assert_eq!(run_twin(&[]), 2);
        assert_eq!(
            run_twin(&["query".to_string(), "{\"cmd\":\"status\"}".to_string()]),
            2,
            "query without --addr must fail cleanly"
        );
    }

    #[test]
    fn workload_keys_resolve() {
        for key in ["openmail", "oltp", "search", "tpcc", "tpch", "OLTP"] {
            assert!(workload_by_key(key).is_ok(), "{key} must resolve");
        }
        assert!(workload_by_key("factorio").is_err());
    }

    #[test]
    fn serve_and_query_round_trip_in_process() {
        // Boot a real server through the same path `serve` uses, then
        // drive it with the query action.
        let twin = Twin::new(TwinConfig::preset(workloads::oltp(), 2)).unwrap();
        let server = TwinServer::start(
            twin,
            ServerConfig {
                epoch_interval_ms: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        let args = vec![
            "--addr".to_string(),
            addr,
            r#"{"cmd":"status"}"#.to_string(),
        ];
        let answer = query(&args).unwrap();
        assert!(answer.contains("\"enclosures\":2"), "{answer}");
        server.stop();
    }
}
