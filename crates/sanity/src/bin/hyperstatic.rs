//! `hyperstatic` — whole-workspace call-graph analysis for lock-order,
//! blocking-path, and panic-path hazards.
//!
//! Usage: `cargo run -p sanity --bin hyperstatic [-- flags]`
//!
//! * `--root <path>`       workspace root (default: walk up to the
//!   first `Cargo.toml` with a `[workspace]` section)
//! * `--graph-json <path>` dump the static lock-order graph as JSON
//! * `--strict-allows`     unused `lint:allow` markers become findings
//!
//! Exit code 0 when clean, 1 on findings or when a configured dispatch
//! root matches no function (its coverage would be silently lost), 2 on
//! usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use sanity::static_graph as sg;

fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut graph_json: Option<PathBuf> = None;
    let mut strict_allows = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage_err("--root requires a path"),
            },
            "--graph-json" => match args.next() {
                Some(p) => graph_json = Some(PathBuf::from(p)),
                None => return usage_err("--graph-json requires a path"),
            },
            "--strict-allows" => strict_allows = true,
            "--help" | "-h" => {
                println!("hyperstatic [--root <path>] [--graph-json <path>] [--strict-allows]");
                return ExitCode::SUCCESS;
            }
            other => return usage_err(&format!("unknown argument `{other}`")),
        }
    }
    let root = match root.or_else(workspace_root) {
        Some(r) => r,
        None => return usage_err("no workspace root found (pass --root)"),
    };

    let analysis = sg::analyze(&root);

    for (file, name) in &analysis.dead_roots {
        println!(
            "{file}: [{}] dispatch root `{name}` matches no function; \
             renamed or moved? update PANIC_ROOTS",
            sg::RULE_PANIC_PATH
        );
    }
    if !analysis.dead_roots.is_empty() {
        eprintln!(
            "hyperstatic: {} dead dispatch root(s)",
            analysis.dead_roots.len()
        );
        return ExitCode::FAILURE;
    }

    if let Some(path) = graph_json {
        if let Err(e) = std::fs::write(&path, sg::graph_json(&analysis.graph)) {
            eprintln!("hyperstatic: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!(
            "hyperstatic: wrote {} static lock-order edge(s) to {}",
            analysis.graph.len(),
            path.display()
        );
    }

    let mut failures = analysis.findings.len();
    for f in &analysis.findings {
        println!("{f}");
    }
    for (file, line, message) in &analysis.warnings {
        if strict_allows {
            println!("{file}:{line}: [unused-allow] {message}");
            failures += 1;
        } else {
            eprintln!("warning: {file}:{line}: [unused-allow] {message}");
        }
    }

    if failures == 0 {
        println!(
            "hyperstatic: clean ({} files, {} functions, {} lock edge(s))",
            analysis.scanned,
            analysis.fns.len(),
            analysis.graph.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("hyperstatic: {failures} finding(s)");
        ExitCode::FAILURE
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("hyperstatic: {msg}");
    ExitCode::from(2)
}
