//! Fleet traffic replay: swap-aware scheduling vs naive FIFO on the
//! acceptance-scale workload (64 boards, 20 models, 12 tenants,
//! 10 000 seeded requests).
//!
//! The replay is a deterministic virtual-time simulation
//! (`netpu_fleet::run_replay`), so the numbers here are a pure function
//! of the config — rerunning on any host reproduces them bit for bit.
//! The two policy rows are merged into `BENCH_serve.json` alongside
//! `serve_scaling`'s board-sweep rows; the headline columns are
//! swaps-per-request (the §V weight-stream loading cost the swap-aware
//! scheduler amortizes) and the compiled-cache hit rate.

use netpu_bench::ExperimentRecord;
use netpu_fleet::{run_replay, DispatchPolicy, ReplayConfig, ReplayReport};
use netpu_runtime::Driver;

fn row(report: &ReplayReport) -> serde_json::Value {
    serde_json::json!({
        "name": format!("fleet_replay_{}", report.policy),
        "policy": report.policy.clone(),
        "seed": report.seed,
        "boards": report.boards,
        "shards": report.shards,
        "models": report.models,
        "offered": report.offered,
        "throttled": report.throttled,
        "completed": report.completed,
        "deadline_missed": report.deadline_missed,
        "p50_us": report.p50_us,
        "p99_us": report.p99_us,
        "p999_us": report.p999_us,
        "mean_us": report.mean_us,
        "jain_fairness": report.jain_fairness,
        "cache_hit_rate": report.cache_hit_rate,
        "cache_evictions": report.cache_evictions,
        "swaps": report.swaps,
        "swaps_per_request": report.swaps_per_request,
        "resident_hit_rate": report.resident_hit_rate,
        "makespan_us": report.makespan_us,
        "measured_fps": report.measured_fps,
        "analytic_fps_bound": report.analytic_fps_bound,
        "bound_ratio": report.bound_ratio,
        "dma_utilization": report.dma_utilization,
    })
}

fn main() {
    let driver = Driver::builder().build();
    let cfg = ReplayConfig::acceptance();

    let aware = run_replay(&driver, &cfg).expect("swap-aware replay");
    let naive = run_replay(&driver, &cfg.clone().with_policy(DispatchPolicy::NaiveFifo))
        .expect("naive replay");

    println!(
        "policy      completed  throttled  p50_us    p99_us    swaps/req  res_hit  cache_hit  fps"
    );
    for r in [&naive, &aware] {
        println!(
            "{:<10}  {:>9}  {:>9}  {:>8.1}  {:>8.1}  {:>9.3}  {:>7.3}  {:>9.4}  {:>8.0}",
            r.policy,
            r.completed,
            r.throttled,
            r.p50_us,
            r.p99_us,
            r.swaps_per_request,
            r.resident_hit_rate,
            r.cache_hit_rate,
            r.measured_fps,
        );
    }
    let reduction = if naive.swaps_per_request > 0.0 {
        1.0 - aware.swaps_per_request / naive.swaps_per_request
    } else {
        0.0
    };
    println!(
        "swap-aware cuts swaps/request by {:.1}% vs naive FIFO ({:.3} -> {:.3})",
        reduction * 100.0,
        naive.swaps_per_request,
        aware.swaps_per_request
    );

    let mut record = ExperimentRecord::new(
        "BENCH_serve",
        "Serving throughput vs boards: measured scheduler vs analytic bound (TfcW1A1)",
    );
    record.push(row(&naive));
    record.push(row(&aware));
    let path = record
        .write_merged(&ExperimentRecord::default_dir())
        .expect("write BENCH_serve.json");
    println!("trajectory record: {}", path.display());
}
