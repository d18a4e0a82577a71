//! NetPU-M benchmark: four seeded closed-loop workloads over the public
//! serving API, host wall-clock end-to-end metrics, and per-layer
//! attribution from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload online-repeat --seed 1 --seconds 10 --trace 0 [--out DIR] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`). The full record —
//! sample counts, modeled-vs-paper latency, host facts, attribution —
//! and, for traced runs, every span go to `--out` (default
//! `perfbench-out`). See `perfbench/README.md` for what each metric
//! means and which layer should move it.

mod probe;
mod stats;
mod trace;
mod workload;

use serde_json::{json, Value};
use stats::{median, percentile, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workload::{mix, run_window, Bench, Dealer, Window, Workload};

/// Extra set-ups per untraced run, all after the timed window and held
/// to one CPU where the window was; `setup_s` is their median. The
/// set-up that serves the window runs in a cold process and is recorded
/// but left out, so every timed set-up starts from the same state.
const SETUP_REPS: usize = 12;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench-out");
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {names:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out,
        smoke,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let origin = Instant::now();

    // Threads started from here on, the serving object's workers and
    // the clients, inherit the pin; it is dropped before the output
    // checks, which run on every CPU.
    let pin = w.one_cpu().then(stats::CpuPin::lowest).transpose()?;
    let pinned_cpu = pin.as_ref().map(|p| p.cpu);
    let t = Instant::now();
    let bench = Bench::setup(w, args.seed, args.smoke)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut dealers: Vec<Dealer> = (0..w.clients())
        .map(|c| Dealer::new(w, args.seed, c))
        .collect();

    let Value::Object(mut record) = json!({
        "workload": w.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "clients": w.clients(),
        "closed_loop": true,
        "mix": w.mix_weights().to_vec(),
        "pinned_cpu": pinned_cpu,
    }) else {
        unreachable!("an object literal builds an object")
    };
    let mut put = |key: &str, value: Value| {
        record.insert(key.to_string(), value);
    };

    let (metrics, windows, spans) = if args.trace {
        // Same length as the untraced run, split into an untraced and a
        // traced half; their gap is the tracing overhead.
        let mut plain = run_window(&bench, &mut dealers, args.seconds / 2.0, false, origin);
        let mut traced = run_window(&bench, &mut dealers, args.seconds / 2.0, true, origin);
        drop(pin);
        plain.check(&bench);
        traced.check(&bench);
        let mut rec = Recorder::new(origin, true, 1 << 60);
        let probe = probe::run(&bench, &traced, &mut rec, args.smoke)?;
        let mut m = probe.metrics;
        let (fps_plain, fps_traced) = (plain.frames_per_s(), traced.frames_per_s());
        m.put(
            "trace.overhead_share",
            fps_plain.zip(fps_traced).map(|(a, b)| 1.0 - b / a),
            "ratio",
            2,
        );
        put("attribution", probe.attribution);
        put(
            "traced_end_to_end",
            json!({
                "frames_per_s_untraced": fps_plain, "frames_per_s_traced": fps_traced,
                "latency_p50_ms_untraced": median(&plain.latencies_ms()),
                "latency_p50_ms_traced": median(&traced.latencies_ms()),
            }),
        );
        let mut spans = traced.spans.clone();
        spans.extend(probe.spans);
        (m, vec![plain, traced], spans)
    } else {
        let mut win = run_window(&bench, &mut dealers, args.seconds, false, origin);
        drop(pin);
        win.check(&bench);
        // Peak memory is read before the extra set-ups below: repeated
        // set-ups fragment the heap and would make the peak theirs.
        let peak_rss = stats::peak_rss_mb();
        if !args.smoke {
            let _pin = w.one_cpu().then(stats::CpuPin::lowest).transpose()?;
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                let extra = Bench::setup(w, args.seed, false)?;
                setups.push(t.elapsed().as_secs_f64());
                extra.shutdown();
            }
        }
        // Smoke runs have no extra set-ups and are too short to reach
        // the cycle prefix.
        let (timed_setups, prefix) = if args.smoke {
            let filed = win.clients.iter().map(|c| c.recs.len()).min();
            (&setups[..], filed.unwrap_or(0))
        } else {
            (&setups[1..], w.cycle_prefix())
        };
        (
            end_to_end(&win, timed_setups, prefix, peak_rss),
            vec![win],
            Vec::new(),
        )
    };
    let (serve, fleet) = bench.shutdown();

    let attempted: usize = windows.iter().map(Window::attempted).sum();
    let errors: Vec<&str> = windows.iter().flat_map(Window::errors).collect();
    let failed = errors.len();
    let missing = metrics.missing();
    let correct = failed == 0 && missing.is_empty() && attempted > 0;
    for e in errors.iter().take(5) {
        eprintln!("perfbench: failed request: {e}");
    }
    if !missing.is_empty() {
        eprintln!("perfbench: metrics without samples: {missing:?}");
    }

    put("metrics", metrics.to_json(true));
    put(
        "requests",
        json!({
            "sent": attempted, "succeeded": attempted - failed, "failed": failed,
            "error_rate": failed as f64 / attempted.max(1) as f64,
            "setup_s": setups,
        }),
    );
    put("modeled_vs_paper", modeled_vs_paper(args.seed)?);
    put(
        "host",
        json!({
            "nproc": stats::nproc(), "rayon_threads": stats::nproc(),
            "commit": stats::commit(),
            "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        }),
    );
    if let Some(s) = serve {
        put(
            "serve",
            json!({"completed": s.completed, "rejected": s.rejected, "queue_high_water": s.queue_high_water}),
        );
    }
    if let Some(f) = fleet {
        put(
            "fleet",
            json!({"completed": f.completed, "throttled": f.throttled, "rejected_busy": f.rejected_busy,
                   "cache_hits": f.cache.hits, "cache_misses": f.cache.misses}),
        );
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let path = args.out.join(format!("{stem}.json"));
    let text = serde_json::to_string_pretty(&Value::Object(record)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    if args.trace {
        let path = args.out.join(format!("{stem}-spans.jsonl"));
        trace::write_spans(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    let line = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.to_json(false),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// The untraced run's end-to-end metrics.
fn end_to_end(win: &Window, setups: &[f64], prefix: usize, peak_rss_mb: Option<f64>) -> Metrics {
    let lat = win.latencies_ms();
    let mut m = Metrics::default();
    m.put("setup_s", median(setups), "s", setups.len());
    m.put("frames_per_s", win.frames_per_s(), "1/s", lat.len());
    m.put("latency_p50_ms", percentile(&lat, 0.50), "ms", lat.len());
    m.put("latency_p99_ms", percentile(&lat, 0.99), "ms", lat.len());
    m.put(
        "batch_latency_p90_ms",
        percentile(&lat, 0.90),
        "ms",
        lat.len(),
    );
    m.put(
        "accel_cycles_per_frame",
        win.cycles_per_frame(prefix),
        "cycles",
        win.clients.iter().map(|c| c.recs.len().min(prefix)).sum(),
    );
    m.put("peak_rss_mb", peak_rss_mb, "MB", 1);
    m
}

/// Modeled latency (certified cycles at the instance clock) of every zoo
/// topology beside the paper's Table V. Modeled figures only: host time
/// never enters this block.
fn modeled_vs_paper(seed: u64) -> Result<Value, String> {
    use netpu_bench::paper::TABLE5_LATENCY;
    use netpu_nn::zoo::ZooModel;
    let hw = netpu_core::HwConfig::paper_instance();
    let mut rows = Vec::new();
    for (i, zoo) in ZooModel::ALL.into_iter().enumerate() {
        let model = workload::Model::build(zoo, mix(seed, 0x7AB5, i as u64), &hw)?;
        // Table V: the Sign row holds the w1a1 models, the folded
        // multi-threshold row the rest.
        let row = if zoo.name().ends_with("w1a1") {
            &TABLE5_LATENCY[2]
        } else {
            &TABLE5_LATENCY[0]
        };
        let paper_us = match zoo.hidden_width() {
            64 => row.tfc_us,
            256 => row.sfc_us,
            _ => row.lfc_us,
        };
        let modeled_us = model.cycles as f64 / hw.clock_mhz;
        rows.push(json!({
            "model": zoo.name(), "table5_config": row.config, "cycles": model.cycles,
            "modeled_us": modeled_us, "paper_us": paper_us,
            "rel_error": (modeled_us - paper_us) / paper_us,
        }));
    }
    Ok(Value::Array(rows))
}
