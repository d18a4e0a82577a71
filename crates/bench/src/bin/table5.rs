//! Regenerates Table V: resource utilization of the 2-LPU × 8-TNPU
//! NetPU-M instance and its simulated inference latency at 100 MHz for
//! the TFC/SFC/LFC models under the three activation/BN configurations.
//!
//! Latency is data- and weight-value-independent, so the models are
//! deterministic random-weight builds of the paper's topologies.

use netpu_bench::{delta, paper, ExperimentRecord, TableWriter};
use netpu_core::netpu::run_inference;
use netpu_core::resources::{netpu_utilization, ULTRA96_V2};
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;

fn simulate(model: ZooModel, bn: BnMode, cfg: &HwConfig) -> f64 {
    let qm = model.build_untrained(0xBEEF, bn).expect("build model");
    let pixels = vec![128u8; qm.input.len];
    let loadable = netpu_compiler::compile(&qm, &pixels).expect("compile");
    run_inference(cfg, loadable.words).expect("run").latency_us
}

fn main() {
    let cfg = HwConfig::paper_instance();

    println!("Table V — NetPU-M instance on Ultra96-V2 (2 LPUs x 8 TNPUs, 100 MHz)\n");
    println!("Resources:");
    let u = netpu_utilization(&cfg);
    let r = u.rates(&ULTRA96_V2);
    let p = &paper::TABLE5_RESOURCES;
    let mut res = TableWriter::new(&["Resource", "Paper", "Model", "Δ", "Rate"]);
    res.row(&[
        "LUTs".into(),
        p.luts.to_string(),
        u.luts.to_string(),
        delta(p.luts as f64, u.luts as f64),
        format!("{:.2}%", r.luts * 100.0),
    ]);
    res.row(&[
        "DSPs".into(),
        p.dsps.to_string(),
        u.dsps.to_string(),
        delta(p.dsps as f64, u.dsps as f64),
        format!("{:.2}%", r.dsps * 100.0),
    ]);
    res.row(&[
        "FFs".into(),
        p.ffs.to_string(),
        u.ffs.to_string(),
        delta(p.ffs as f64, u.ffs as f64),
        format!("{:.2}%", r.ffs * 100.0),
    ]);
    res.row(&[
        "BRAM36".into(),
        p.bram36.to_string(),
        u.bram36.to_string(),
        delta(p.bram36, u.bram36),
        format!("{:.2}%", r.bram36 * 100.0),
    ]);
    res.print();

    println!("\nSimulated inference latency (us):");
    let mut record = ExperimentRecord::new("table5", "NetPU-M resources + simulated latency");
    record.push(serde_json::json!({
        "resources": {
            "paper": { "luts": p.luts, "dsps": p.dsps, "ffs": p.ffs, "bram36": p.bram36 },
            "model": { "luts": u.luts, "dsps": u.dsps, "ffs": u.ffs, "bram36": u.bram36 },
        }
    }));

    // Row 1-2: the Multi-Threshold (w2a2 / w1a2) models, BN folded / not.
    // Row 3: the Sign (w1a1) models (BN always folds into the threshold).
    let configs: [(&str, [ZooModel; 3], BnMode); 3] = [
        (
            "Multi-Thres, BN folded",
            [ZooModel::TfcW2A2, ZooModel::SfcW2A2, ZooModel::LfcW1A2],
            BnMode::Folded,
        ),
        (
            "Multi-Thres, BN hardware",
            [ZooModel::TfcW2A2, ZooModel::SfcW2A2, ZooModel::LfcW1A2],
            BnMode::Hardware,
        ),
        (
            "Sign (BNN)",
            [ZooModel::TfcW1A1, ZooModel::SfcW1A1, ZooModel::LfcW1A1],
            BnMode::Folded,
        ),
    ];
    let mut lat = TableWriter::new(&[
        "Configuration",
        "TFC paper",
        "TFC model",
        "Δ",
        "SFC paper",
        "SFC model",
        "Δ",
        "LFC paper",
        "LFC model",
        "Δ",
    ]);
    for ((label, models, bn), paper_row) in configs.iter().zip(&paper::TABLE5_LATENCY) {
        let got: Vec<f64> = models.iter().map(|&m| simulate(m, *bn, &cfg)).collect();
        lat.row(&[
            label.to_string(),
            format!("{:.3}", paper_row.tfc_us),
            format!("{:.3}", got[0]),
            delta(paper_row.tfc_us, got[0]),
            format!("{:.3}", paper_row.sfc_us),
            format!("{:.3}", got[1]),
            delta(paper_row.sfc_us, got[1]),
            format!("{:.3}", paper_row.lfc_us),
            format!("{:.3}", got[2]),
            delta(paper_row.lfc_us, got[2]),
        ]);
        record.push(serde_json::json!({
            "config": label,
            "paper_us": { "tfc": paper_row.tfc_us, "sfc": paper_row.sfc_us, "lfc": paper_row.lfc_us },
            "model_us": { "tfc": got[0], "sfc": got[1], "lfc": got[2] },
        }));
    }
    lat.print();
    println!(
        "\nShape checks: Sign (1-bit) models run ~4-8x faster than 2-bit models (8-channel\n\
         binary weight packing); BN folding saves ~1-3%; latency scales with weight count."
    );
    let path = record
        .write(&ExperimentRecord::default_dir())
        .expect("write experiment record");
    println!("\nrecord: {}", path.display());
}
