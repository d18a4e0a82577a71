//! Fast-path simulation throughput: tick-level vs phase-skipping
//! single-inference simulation, sequential vs memoized+parallel
//! `Driver::infer_batch`, and the batch-major bitsliced kernel against
//! the scalar and per-frame-packed batch strategies across the binary
//! zoo.
//!
//! Besides the criterion console output, the run writes a
//! `BENCH_sim.json` trajectory record (under `target/experiments/`, or
//! `NETPU_EXPERIMENT_DIR`) with the measured wall-clock times and
//! speedups so the perf history survives in machine-readable form.

use criterion::{black_box, Criterion};
use netpu_bench::ExperimentRecord;
use netpu_core::netpu::{run_inference, run_inference_fast};
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::Driver;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Mean seconds per iteration: one warm-up call, then at least three
/// iterations or 300 ms of measurement, whichever is longer.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        if (iters >= 3 && start.elapsed() >= Duration::from_millis(300)) || iters >= 200 {
            break;
        }
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

fn main() {
    let cfg = HwConfig::paper_instance();
    let model = ZooModel::LfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let pixels: Vec<u8> = (0..784).map(|i| (i % 251) as u8).collect();
    let words = netpu_compiler::compile(&model, &pixels).unwrap().words;

    let mut record = ExperimentRecord::new(
        "BENCH_sim",
        "Fast-path simulation wall-clock trajectory (LfcW1A1)",
    );

    // Single-inference simulation: reference tick loop vs fast path.
    let run = run_inference(&cfg, words.clone()).unwrap();
    let fast = run_inference_fast(&cfg, words.clone()).unwrap();
    assert_eq!(run, fast, "fast path diverged from the tick path");
    let tick_s = measure(|| {
        black_box(run_inference(&cfg, black_box(words.clone())).unwrap());
    });
    let fast_s = measure(|| {
        black_box(run_inference_fast(&cfg, black_box(words.clone())).unwrap());
    });
    println!(
        "sim/lfc_w1a1 tick {:.3} ms  fast {:.3} ms  speedup {:.1}x  ({} cycles)",
        tick_s * 1e3,
        fast_s * 1e3,
        tick_s / fast_s,
        run.cycles
    );
    record.push(serde_json::json!({
        "name": "lfc_w1a1_single_inference",
        "cycles": run.cycles,
        "tick_s": tick_s,
        "fast_s": fast_s,
        "speedup": tick_s / fast_s,
    }));

    // Batched inference: per-frame full simulation (sequential) vs the
    // memoized, rayon-parallel `infer_batch`.
    let driver = Driver::builder().build();
    let frames: Vec<Vec<u8>> = (0..16u8)
        .map(|f| {
            (0..784)
                .map(|i| (i as u16 * (f as u16 + 3) % 251) as u8)
                .collect()
        })
        .collect();
    let sequential_s = measure(|| {
        let mut loadable = netpu_compiler::compile(&model, &frames[0]).unwrap();
        let mut runs = vec![driver.run_loadable(&loadable).unwrap()];
        for pixels in &frames[1..] {
            loadable.replace_input(pixels).unwrap();
            runs.push(driver.run_loadable(&loadable).unwrap());
        }
        black_box(runs);
    });
    let parallel_s = measure(|| {
        black_box(driver.infer_batch(&model, black_box(&frames)).unwrap());
    });
    let n = frames.len() as f64;
    println!(
        "batch/lfc_w1a1 x{} sequential {:.3} ms ({:.0} fps)  parallel {:.3} ms ({:.0} fps)  speedup {:.1}x",
        frames.len(),
        sequential_s * 1e3,
        n / sequential_s,
        parallel_s * 1e3,
        n / parallel_s,
        sequential_s / parallel_s
    );
    record.push(serde_json::json!({
        "name": "infer_batch_16_frames",
        "frames": frames.len(),
        "sequential_s": sequential_s,
        "parallel_s": parallel_s,
        "frames_per_s_before": n / sequential_s,
        "frames_per_s_after": n / parallel_s,
        "speedup": sequential_s / parallel_s,
    }));

    // Batch-major bitsliced kernel vs the two older batch strategies,
    // across the binary zoo at a realistic batch size. Three honest
    // contenders, all bit-exact against each other (asserted below):
    //   scalar    — per-frame phase-skipping simulation, sequential
    //               (the seed's only batch story);
    //   packed    — one sim run + per-frame `PackedMlp` fan-out with
    //               rayon (the pre-bitslice `infer_batch`, replicated
    //               inline);
    //   bitsliced — today's `infer_batch`: 64-image slabs through the
    //               batch-major kernel, slabs swept across workers.
    let batch = 256usize;
    for (zoo, seed) in [
        (ZooModel::TfcW1A1, 21u64),
        (ZooModel::SfcW1A1, 22),
        (ZooModel::LfcW1A1, 23),
    ] {
        let model = zoo.build_untrained(seed, BnMode::Folded).unwrap();
        let frames: Vec<Vec<u8>> = (0..batch)
            .map(|f| {
                (0..model.input.len)
                    .map(|i| ((i * 29 + f * 13 + 7) % 251) as u8)
                    .collect()
            })
            .collect();

        let scalar_s = measure(|| {
            let mut loadable = netpu_compiler::compile(&model, &frames[0]).unwrap();
            let mut classes = vec![driver.run_loadable(&loadable).unwrap().class];
            for pixels in &frames[1..] {
                loadable.replace_input(pixels).unwrap();
                classes.push(driver.run_loadable(&loadable).unwrap().class);
            }
            black_box(classes);
        });
        let packed = netpu_nn::reference::PackedMlp::new(&model);
        let packed_s = measure(|| {
            let loadable = netpu_compiler::compile(&model, &frames[0]).unwrap();
            black_box(run_inference_fast(&cfg, loadable.words).unwrap());
            let classes: Vec<usize> = frames
                .par_iter()
                .map(|pixels| packed.infer_traced(pixels).class)
                .collect();
            black_box(classes);
        });
        let bitsliced_s = measure(|| {
            black_box(driver.infer_batch(&model, black_box(&frames)).unwrap());
        });

        // All three strategies must agree frame-for-frame.
        let batch_runs = driver.infer_batch(&model, &frames).unwrap();
        for (run, pixels) in batch_runs.iter().zip(&frames) {
            assert_eq!(run.class, packed.infer_traced(pixels).class);
        }

        let n = batch as f64;
        println!(
            "zoo/{} x{} scalar {:.0} fps  packed {:.0} fps  bitsliced {:.0} fps  \
             ({:.1}x over scalar, {:.1}x over packed)",
            zoo.name(),
            batch,
            n / scalar_s,
            n / packed_s,
            n / bitsliced_s,
            scalar_s / bitsliced_s,
            packed_s / bitsliced_s,
        );
        record.push(serde_json::json!({
            "name": format!("batch256_{}", zoo.name()),
            "frames": batch,
            "scalar_s": scalar_s,
            "packed_s": packed_s,
            "bitsliced_s": bitsliced_s,
            "frames_per_s_scalar": n / scalar_s,
            "frames_per_s_packed": n / packed_s,
            "frames_per_s_bitsliced": n / bitsliced_s,
            "speedup_vs_scalar": scalar_s / bitsliced_s,
            "speedup_vs_packed": packed_s / bitsliced_s,
        }));
    }

    // Multi-core slab sweep: `infer_batch` splits a batch into 64-image
    // slabs and sweeps them across worker threads, so cross-slab scaling
    // only exists on multi-core hosts. Gated so a single-core runner
    // records no misleading 1.0x row; the core count travels with the
    // row so trajectories from different hosts stay comparable.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        let sweep_batch = 512usize;
        let model = ZooModel::LfcW1A1
            .build_untrained(23, BnMode::Folded)
            .unwrap();
        let frames: Vec<Vec<u8>> = (0..sweep_batch)
            .map(|f| {
                (0..model.input.len)
                    .map(|i| ((i * 31 + f * 17 + 5) % 251) as u8)
                    .collect()
            })
            .collect();
        // Baseline: one slab per call — no cross-slab parallelism.
        let slab_serial_s = measure(|| {
            let mut runs = Vec::with_capacity(sweep_batch);
            for slab in frames.chunks(64) {
                runs.extend(driver.infer_batch(&model, black_box(slab)).unwrap());
            }
            black_box(runs);
        });
        // Sweep: the full batch in one call, slabs fanned across cores.
        let sweep_s = measure(|| {
            black_box(driver.infer_batch(&model, black_box(&frames)).unwrap());
        });
        let n = sweep_batch as f64;
        println!(
            "sweep/lfc_w1a1 x{sweep_batch} serial-slab {:.0} fps  {cores}-core sweep {:.0} fps  scaling {:.2}x",
            n / slab_serial_s,
            n / sweep_s,
            slab_serial_s / sweep_s,
        );
        record.push(serde_json::json!({
            "name": "batch512_multicore_slab_sweep",
            "frames": sweep_batch,
            "cores": cores,
            "slab_serial_s": slab_serial_s,
            "sweep_s": sweep_s,
            "frames_per_s_serial": n / slab_serial_s,
            "frames_per_s_sweep": n / sweep_s,
            "core_scaling": slab_serial_s / sweep_s,
        }));
    } else {
        println!("sweep/lfc_w1a1 skipped: single-core host, no cross-slab parallelism to measure");
    }

    let path = record
        .write(&ExperimentRecord::default_dir())
        .expect("write BENCH_sim.json");
    println!("trajectory record: {}", path.display());

    // Criterion views of the same workloads, for the bench console.
    let mut c = Criterion::default().measurement_time(Duration::from_millis(300));
    c.bench_function("sim/lfc_w1a1_tick", |b| {
        b.iter(|| run_inference(&cfg, black_box(words.clone())).unwrap())
    });
    c.bench_function("sim/lfc_w1a1_fast", |b| {
        b.iter(|| run_inference_fast(&cfg, black_box(words.clone())).unwrap())
    });
    c.bench_function("batch/infer_batch_16_frames", |b| {
        b.iter(|| driver.infer_batch(&model, black_box(&frames)).unwrap())
    });
}
