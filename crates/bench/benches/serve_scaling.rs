//! Serving throughput vs board count: the executing `netpu-serve`
//! scheduler against the analytic `ClusterThroughput` bound.
//!
//! For each board count the bench drives a saturated server (every
//! request queued up front) over TFC-W1A1 and compares the measured
//! virtual-time rate with `min(boards/latency, 1/transfer)` — the
//! shared-DMA loading bottleneck of §V at system scale. The run writes
//! a `BENCH_serve.json` record (under `target/experiments/`, or
//! `NETPU_EXPERIMENT_DIR`) so the saturation trajectory survives in
//! machine-readable form.

use netpu_bench::ExperimentRecord;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::{Cluster, Driver, InferRequest};
use netpu_serve::{Server, ServerConfig};

fn main() {
    let driver = Driver::builder().build();
    let model = ZooModel::TfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let loadable = netpu_compiler::compile(&model, &vec![100u8; 784]).unwrap();
    let n = 128usize;

    let mut record = ExperimentRecord::new(
        "BENCH_serve",
        "Serving throughput vs boards: measured scheduler vs analytic bound (TfcW1A1)",
    );

    println!("boards  measured_fps  analytic_fps  bound     dma_util");
    for boards in [1usize, 2, 4, 8] {
        let analytic = Cluster::new(boards, driver.clone())
            .throughput(&model)
            .unwrap();
        let server = Server::start(
            driver.clone(),
            ServerConfig {
                boards,
                queue_capacity: n,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<_> = (0..n)
            .map(|_| {
                server
                    .submit(InferRequest::loadable(loadable.clone()))
                    .expect_accepted()
            })
            .collect();
        for t in tickets {
            t.wait().expect("saturation run must not fail");
        }
        let m = server.shutdown();
        let measured = m.measured_fps().expect("completed frames");
        let bound = if analytic.fps == analytic.transfer_bound_fps {
            "transfer"
        } else {
            "compute"
        };
        println!(
            "{boards:>6}  {measured:>12.0}  {:>12.0}  {bound:<8}  {:.2}",
            analytic.fps,
            m.dma_utilization()
        );
        record.push(serde_json::json!({
            "name": format!("tfc_w1a1_{boards}_boards"),
            "boards": boards,
            "requests": n,
            "measured_fps": measured,
            "analytic_fps": analytic.fps,
            "compute_bound_fps": analytic.compute_bound_fps,
            "transfer_bound_fps": analytic.transfer_bound_fps,
            "binding": bound,
            "relative_error": (measured - analytic.fps).abs() / analytic.fps,
            "dma_utilization": m.dma_utilization(),
            "board_utilization": m.board_utilization(),
            "makespan_us": m.makespan_us,
        }));
    }

    // Merged write: `fleet_replay` owns the fleet rows of the same file.
    let path = record
        .write_merged(&ExperimentRecord::default_dir())
        .expect("write BENCH_serve.json");
    println!("trajectory record: {}", path.display());
}
