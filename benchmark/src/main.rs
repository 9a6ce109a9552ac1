//! `nrbench`: the repository's end-to-end benchmark.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   once and prints, as the last line of stdout, one JSON object with
//!   `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//!   metrics untraced, the per-layer ones traced).
//! * `--all` runs every workload, each run in a process of its own, and
//!   writes a results file; `--smoke` is a scaled-down `--all` that
//!   checks the results' shape; `--agree A B` compares two results files.
//!
//! See `benchmark/README.md`.

mod audit;
mod hist;
mod host;
mod layers;
mod replay;
mod report;
mod run;
mod stack;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Json, MetricDef, END_TO_END, PER_LAYER};
use run::{RunArgs, RunOutcome};
use stack::{out_root, OutDir};
use workload::Workload;

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    runs: u64,
    all: bool,
    smoke: bool,
    agree: Option<(PathBuf, PathBuf)>,
    /// Where `--all` writes its results; defaults into the out directory.
    results: Option<PathBuf>,
}

fn usage() -> String {
    "usage: nrbench --workload <direct_hss|mix_arbitrated|direct_writethrough|dispute_audit> \
     [--seed N] [--seconds S] [--trace 0|1]\n       nrbench --all [--seed N] [--seconds S] [--runs R] [--workload W] [--results FILE]\n       \
     nrbench --smoke\n       nrbench --agree A.json B.json"
        .into()
}

fn parse_cli(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
        runs: 1,
        all: false,
        smoke: false,
        agree: None,
        results: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                cli.scale = value("a number")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--results" => cli.results = Some(PathBuf::from(value("a file name")?)),
            "--all" => cli.all = true,
            "--smoke" => cli.smoke = true,
            "--agree" => {
                cli.agree = Some((
                    PathBuf::from(value("two results files")?),
                    PathBuf::from(value("two results files")?),
                ));
            }
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(cli)
}

fn metric_defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders an outcome's metrics as the contract's `metrics` object,
/// checking that it names exactly the metrics of its table.
fn metrics_json(outcome: &RunOutcome, trace: bool) -> Result<Json, String> {
    let defs = metric_defs(trace);
    let mut entries = Vec::with_capacity(defs.len());
    for def in defs {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("the run did not report {}", def.name))?;
        if !value.is_finite() {
            return Err(format!("{} is not a finite number", def.name));
        }
        entries.push((
            def.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]),
        ));
    }
    if let Some((extra, _)) = outcome
        .metrics
        .iter()
        .find(|(name, _)| defs.iter().all(|d| d.name != *name))
    {
        return Err(format!(
            "the run reported {extra}, which its table does not name"
        ));
    }
    Ok(Json::obj(entries))
}

/// Prints every metric of a `metrics` object by name, value and unit.
fn print_metrics(metrics: &Json) {
    for (name, m) in metrics.entries() {
        println!(
            "{name:<40} {:>16.4} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
}

/// One run in this process. Prints every metric by name and unit, then a
/// line of notes, then the contract line.
fn single_run(cli: &Cli, workload: Workload) -> Result<(), String> {
    let out = OutDir::create().map_err(|e| format!("out directory: {e}"))?;
    let fs = host::fs_type(out.root());
    if fs == "tmpfs"
        && matches!(
            workload,
            Workload::DirectWritethrough | Workload::DisputeAudit
        )
    {
        return Err(format!(
            "{} measures fsync and recovery from disk; {} is on tmpfs, where both are free",
            workload.name(),
            out.root().display()
        ));
    }
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        scale: cli.scale,
        out: &out,
    };
    let outcome = match (cli.trace, workload) {
        (true, _) => layers::run_traced(&args)?,
        (false, Workload::DisputeAudit) => run::run_dispute_audit(&args)?,
        (false, _) => run::run_load(&args)?,
    };
    let metrics = metrics_json(&outcome, cli.trace)?;
    println!(
        "# {} seed {} seconds {} trace {} ({} on {fs})",
        workload.name(),
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        workload.config().name(),
    );
    print_metrics(&metrics);
    for e in &outcome.errors {
        eprintln!("failed: {e}");
    }
    let correct = outcome.correct && outcome.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("notes", Json::obj(outcome.notes.iter().cloned())),
            (
                "errors",
                Json::Arr(outcome.errors.iter().cloned().map(Json::Str).collect())
            ),
        ])
        .render()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(())
}

/// Runs this executable again for one run and parses its last two lines.
fn child_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(notes)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{} printed no result (exit {})",
            workload.name(),
            output.status
        ));
    };
    let mut run = Json::parse(result)?;
    let notes = Json::parse(notes)?;
    if let Json::Obj(entries) = &mut run {
        entries.insert(0, ("seed".into(), Json::Num(seed as f64)));
        entries.extend(notes.entries().iter().cloned());
    }
    Ok(run)
}

fn print_run(workload: Workload, label: &str, run: &Json) {
    println!(
        "## {} {label}: correct {} attempted {} failed {}",
        workload.name(),
        run.get("correct").map_or("?".into(), Json::render),
        run.get("attempted").map_or("?".into(), Json::render),
        run.get("failed").map_or("?".into(), Json::render),
    );
    if let Some(metrics) = run.get("metrics") {
        print_metrics(metrics);
    }
}

/// Runs the selected workloads, `runs` untraced runs (seeds `seed`,
/// `seed+1`, …) and one traced run each, and returns the results
/// document.
fn run_all(cli: &Cli, workloads: &[Workload]) -> Result<Json, String> {
    let mut per_workload = Vec::new();
    for &w in workloads {
        let mut runs = Vec::new();
        for r in 0..cli.runs {
            let run = child_run(w, cli.seed + r, cli.seconds, false, cli.scale)?;
            print_run(w, &format!("run {r} (seed {})", cli.seed + r), &run);
            runs.push(run);
        }
        let layers = child_run(w, cli.seed, cli.seconds, true, cli.scale)?;
        print_run(w, "traced", &layers);
        per_workload.push((
            w.name(),
            Json::obj([("runs", Json::Arr(runs)), ("layers", layers)]),
        ));
    }
    Ok(Json::obj([
        ("schema", Json::Str("nrbench-results-1".into())),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("scale", Json::Num(cli.scale)),
        ("host", host::stanza(&out_root(), run::client_threads())),
        ("workloads", Json::obj(per_workload)),
    ]))
}

/// Checks a results document: every one of `workloads` present, every
/// metric of both tables reported under its unit, nothing failed. With
/// `benchmark_json`, also that `BENCHMARK.json` declares the same names.
fn check_results(
    results: &Json,
    workloads: &[Workload],
    benchmark_json: Option<&Json>,
) -> Result<(), String> {
    for &w in workloads {
        let body = results
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .ok_or_else(|| format!("results lack workload {}", w.name()))?;
        let runs = body.get("runs").map_or(&[][..], Json::as_arr);
        if runs.is_empty() {
            return Err(format!("{}: no runs", w.name()));
        }
        let layers = body
            .get("layers")
            .ok_or_else(|| format!("{}: no traced run", w.name()))?;
        for (run, defs) in runs
            .iter()
            .map(|r| (r, END_TO_END))
            .chain([(layers, PER_LAYER)])
        {
            if run.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{}: a run is not correct: {}",
                    w.name(),
                    run.get("errors").map_or(String::new(), Json::render)
                ));
            }
            if run.get("failed").and_then(Json::as_f64) != Some(0.0) {
                return Err(format!("{}: failed_share is not 0", w.name()));
            }
            let metrics = run.get("metrics").map_or(&[][..], Json::entries);
            let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
            let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
            if names != want {
                return Err(format!(
                    "{}: metric names {names:?} differ from {want:?}",
                    w.name()
                ));
            }
            for ((_, m), def) in metrics.iter().zip(defs) {
                if m.get("unit").and_then(Json::as_str) != Some(def.unit) {
                    return Err(format!("{}: {} has the wrong unit", w.name(), def.name));
                }
                if !m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    return Err(format!("{}: {} has no finite value", w.name(), def.name));
                }
            }
        }
    }
    let Some(decl) = benchmark_json else {
        return Ok(());
    };
    let declared = |key: &str| -> Vec<String> {
        decl.get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect()
    };
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
        if declared(key) != want {
            return Err(format!(
                "BENCHMARK.json {key} names differ from the harness's table"
            ));
        }
    }
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared("workloads") != want {
        return Err("BENCHMARK.json workloads differ from the harness's".into());
    }
    Ok(())
}

fn write_results(results: &Json, path: PathBuf) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = parse_cli(&argv)?;
    if let Some((a, b)) = &cli.agree {
        let load = |p: &PathBuf| -> Result<Json, String> {
            Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?)
        };
        let (rows, any_worse) = report::agree(&load(a)?, &load(b)?);
        for row in rows {
            println!("{row}");
        }
        return Ok(!any_worse);
    }
    if cli.smoke {
        // 1/100 of the work: a twentieth of the op counts for a fifth of
        // a second per run.
        cli.scale = 0.05;
        cli.seconds = 0.2;
        cli.runs = 1;
        let results = run_all(&cli, &Workload::ALL)?;
        let decl = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e}"))
            .and_then(|t| Json::parse(&t))?;
        write_results(&results, out_root().join("results-smoke.json"))?;
        check_results(&results, &Workload::ALL, Some(&decl))?;
        println!("smoke ok");
        return Ok(true);
    }
    if cli.all {
        let workloads: Vec<Workload> = cli.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        let results = run_all(&cli, &workloads)?;
        let path = cli
            .results
            .clone()
            .unwrap_or_else(|| out_root().join(format!("results-seed{}.json", cli.seed)));
        write_results(&results, path)?;
        check_results(&results, &workloads, None)?;
        return Ok(true);
    }
    match cli.workload {
        // A printed result exits 0 even when it says `correct: false`:
        // a non-zero exit means there is no result to read.
        Some(w) => single_run(&cli, w).map(|()| true),
        None => Err(usage()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nrbench: {e}");
            ExitCode::from(2)
        }
    }
}
