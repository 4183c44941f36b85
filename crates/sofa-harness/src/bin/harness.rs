//! The harness CLI.
//!
//! ```text
//! harness run  (--all | --spec NAME...) [--json PATH] [--update-golden] [--specs DIR]
//! harness check [--specs DIR]
//! harness list [--markdown] [--specs DIR]
//! ```
//!
//! Exit codes follow the regression-gate contract: `0` every predicate
//! passed, `1` a gate tripped, `2` an artifact or pipeline problem
//! (missing file, unknown spec, bad flag).

use sofa_harness::runner::{check_specs, load_specs_dir, run_specs, RunOptions, SpecStatus};
use sofa_harness::spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/sofa-harness -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

struct Args {
    command: String,
    all: bool,
    specs: Vec<String>,
    json: Option<PathBuf>,
    update_golden: bool,
    markdown: bool,
    specs_dir: PathBuf,
}

fn usage() -> String {
    "usage: harness <run|check|list> [options]\n\
     \n\
     harness run  (--all | --spec NAME...) [--json PATH] [--update-golden] [--specs DIR]\n\
     harness check [--specs DIR]\n\
     harness list [--markdown] [--specs DIR]\n"
        .to_string()
}

/// The flags `command` takes.
fn flags_of(command: &str) -> &'static [&'static str] {
    match command {
        "run" => &["--all", "--spec", "--json", "--update-golden", "--specs"],
        "check" => &["--specs"],
        _ => &["--markdown", "--specs"],
    }
}

/// Stores a single-value flag, refusing a second occurrence.
fn set_once(slot: &mut Option<PathBuf>, flag: &str, value: String) -> Result<(), String> {
    match slot.replace(PathBuf::from(value)) {
        Some(_) => Err(format!("{flag} given twice")),
        None => Ok(()),
    }
}

/// Parses `argv`. A flag the command does not take, a repeated
/// single-value flag, a flag without its value and `--all` next to
/// `--spec` are one-line errors.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or_else(usage)?;
    if !matches!(command.as_str(), "run" | "check" | "list") {
        return Err(format!("unknown command {command:?}\n{}", usage()));
    }
    let mut args = Args {
        command,
        all: false,
        specs: Vec::new(),
        json: None,
        update_golden: false,
        markdown: false,
        specs_dir: workspace_root().join("specs"),
    };
    let mut specs_dir = None;
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        if !flags_of(&args.command).contains(&flag.as_str()) {
            return Err(format!("harness {} does not take {flag:?}", args.command));
        }
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--all" => args.all = true,
            "--spec" => args.specs.push(value("--spec")?),
            "--json" => set_once(&mut args.json, "--json", value("--json")?)?,
            "--update-golden" => args.update_golden = true,
            "--markdown" => args.markdown = true,
            "--specs" => set_once(&mut specs_dir, "--specs", value("--specs")?)?,
            other => unreachable!("{other:?} is in flags_of but has no arm"),
        }
    }
    if args.all && !args.specs.is_empty() {
        return Err("--all and --spec exclude each other".into());
    }
    if let Some(dir) = specs_dir {
        args.specs_dir = dir;
    }
    Ok(args)
}

fn load_all(dir: &std::path::Path) -> Result<Vec<Spec>, String> {
    let mut specs = Vec::new();
    for (path, parsed) in load_specs_dir(dir)? {
        specs.push(parsed.map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(specs)
}

fn cmd_run(args: &Args) -> Result<u8, String> {
    let mut specs = load_all(&args.specs_dir)?;
    if !args.all {
        if args.specs.is_empty() {
            return Err(format!(
                "harness run needs --all or --spec NAME\n{}",
                usage()
            ));
        }
        for name in &args.specs {
            if !specs.iter().any(|s| &s.name == name) {
                return Err(format!(
                    "no spec named {name:?} in {}",
                    args.specs_dir.display()
                ));
            }
        }
        specs.retain(|s| args.specs.contains(&s.name));
    }
    let opts = RunOptions {
        root: workspace_root(),
        update_golden: args.update_golden,
    };
    let summary = run_specs(&specs, &opts);
    for r in &summary.results {
        let (tag, lines) = match r.status() {
            SpecStatus::Pass => ("PASS", &r.ok),
            SpecStatus::GateFailed => ("FAIL", &r.failures),
            SpecStatus::ArtifactError => ("ERROR", &r.artifact_errors),
        };
        let gate = r
            .gate
            .as_deref()
            .map(|g| format!(" [{g}]"))
            .unwrap_or_default();
        println!("{tag:<5} {}{gate} ({})", r.name, r.experiment);
        for line in lines {
            println!("      {line}");
        }
        for artifact in &r.artifacts {
            println!("      wrote {artifact}");
        }
    }
    let passed = summary
        .results
        .iter()
        .filter(|r| r.status() == SpecStatus::Pass)
        .count();
    println!("{passed}/{} specs passed", summary.results.len());
    if let Some(json_path) = &args.json {
        let path = if json_path.is_absolute() {
            json_path.clone()
        } else {
            workspace_root().join(json_path)
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, summary.to_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(summary.exit_code())
}

fn cmd_check(args: &Args) -> Result<u8, String> {
    let problems = check_specs(&args.specs_dir, &workspace_root());
    if problems.is_empty() {
        let n = load_all(&args.specs_dir).map(|s| s.len()).unwrap_or(0);
        println!("{n} specs OK in {}", args.specs_dir.display());
        Ok(0)
    } else {
        for p in &problems {
            eprintln!("spec lint: {p}");
        }
        Err(format!("{} spec problem(s)", problems.len()))
    }
}

fn cmd_list(args: &Args) -> Result<u8, String> {
    let specs = load_all(&args.specs_dir)?;
    if args.markdown {
        print!("{}", sofa_harness::catalog::experiments_markdown(&specs));
    } else {
        println!("registered experiments:");
        for e in sofa_bench::registry::registry() {
            println!("  {}: {}", e.name, e.about);
        }
        println!("\nspecs in {}:", args.specs_dir.display());
        for s in &specs {
            println!(
                "  {} -> {} ({} predicate(s))",
                s.name,
                s.experiment,
                s.predicates.len()
            );
        }
    }
    Ok(0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = parse_args(&argv).and_then(|args| match args.command.as_str() {
        "run" => cmd_run(&args),
        "check" => cmd_check(&args),
        "list" => cmd_list(&args),
        _ => unreachable!("parse_args validated the command"),
    });
    match run {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("harness: {e}");
            ExitCode::from(2)
        }
    }
}
