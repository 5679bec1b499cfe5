//! CLI entry point: `cargo run -p ecds-lint [-- --json results/LINT.json]`.
//!
//! Exit codes: 0 = workspace clean (allowlisted sites included), 1 = any
//! unallowlisted violation, stale or ambiguous allowlist entry, or
//! unparseable file, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use ecds_lint::{engine, report};

struct Args {
    root: Option<PathBuf>,
    json: Option<PathBuf>,
    verbose: bool,
}

const USAGE: &str = "\
ecds-lint: enforce the workspace taint/alloc-free invariants (DESIGN.md §9, §14)

USAGE: cargo run -p ecds-lint [-- OPTIONS]

OPTIONS:
    --root <DIR>    workspace root (default: walk up from the current directory)
    --json <FILE>   also write the machine-readable report (e.g. results/LINT.json)
    --verbose       list allowlisted sites with their audit reasons
    --help          show this help";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        json: None,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a directory")?,
                ))
            }
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json requires a path")?)),
            "--verbose" => args.verbose = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("ecds-lint: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = match args.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| engine::find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("ecds-lint: could not find the workspace root (Cargo.toml + crates/)");
            return ExitCode::from(2);
        }
    };
    let result = match engine::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ecds-lint: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::human(&result, args.verbose));
    if let Some(json_path) = &args.json {
        let path = if json_path.is_absolute() {
            json_path.clone()
        } else {
            root.join(json_path)
        };
        if let Err(e) = std::fs::write(&path, report::json(&result)) {
            eprintln!("ecds-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if result.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
