//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **Weight-buffer double buffering** — the §V "optimize the data
//!    loading schemes" future work.
//! 2. **TNPU / LPU scaling** — how instance size trades resources
//!    against latency (and where the 64-bit stream becomes the wall).
//! 3. **Multi-channel low-precision weight packing** — the §V future
//!    work of packing 1/2/4-bit weights densely instead of one per
//!    8-bit lane, run executably through the dense-capable instance.
//! 4. **Multi-Threshold precision cap** — Table IV's 4-bit vs 8-bit
//!    resource story at instance scale.

use netpu_bench::{ExperimentRecord, TableWriter};
use netpu_core::netpu::run_inference;
use netpu_core::resources::{netpu_utilization, ULTRA96_V2};
use netpu_core::HwConfig;
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;

fn latency_us(cfg: &HwConfig, model: ZooModel) -> f64 {
    let qm = model.build_untrained(7, BnMode::Folded).unwrap();
    let px = vec![128u8; qm.input.len];
    let words = netpu_compiler::compile(&qm, &px).unwrap().words;
    run_inference(cfg, words).unwrap().latency_us
}

fn main() {
    let base = HwConfig::paper_instance();
    let mut record = ExperimentRecord::new("ablations", "Design-choice ablations");

    println!("Ablation 1 — weight-buffer double buffering (SFC-w1a1 / SFC-w2a2)\n");
    let mut t1 = TableWriter::new(&["Model", "Single-port us", "Double-buffered us", "Speedup"]);
    for model in [ZooModel::SfcW1A1, ZooModel::SfcW2A2] {
        let single = latency_us(&base, model);
        let double = latency_us(
            &HwConfig {
                double_buffered_weights: true,
                ..base
            },
            model,
        );
        t1.row(&[
            model.name().into(),
            format!("{single:.2}"),
            format!("{double:.2}"),
            format!("{:.2}x", single / double),
        ]);
        record.push(serde_json::json!({
            "ablation": "double_buffer", "model": model.name(),
            "single_us": single, "double_us": double,
        }));
    }
    t1.print();

    println!("\nAblation 2 — instance scaling (SFC-w2a2 latency vs resources)\n");
    let mut t2 = TableWriter::new(&["LPUs x TNPUs", "Latency us", "LUTs", "DSPs", "Fits Ultra96"]);
    for (lpus, tnpus) in [(2usize, 2usize), (2, 4), (2, 8), (2, 16), (4, 8)] {
        let cfg = HwConfig {
            lpus,
            tnpus_per_lpu: tnpus,
            ..base
        };
        let us = latency_us(&cfg, ZooModel::SfcW2A2);
        let u = netpu_utilization(&cfg);
        t2.row(&[
            format!("{lpus} x {tnpus}"),
            format!("{us:.2}"),
            u.luts.to_string(),
            u.dsps.to_string(),
            u.fits(&ULTRA96_V2).to_string(),
        ]);
        record.push(serde_json::json!({
            "ablation": "scaling", "lpus": lpus, "tnpus": tnpus,
            "latency_us": us, "luts": u.luts, "dsps": u.dsps,
            "fits": u.fits(&ULTRA96_V2),
        }));
    }
    t2.print();
    println!(
        "\n  Latency saturates quickly with TNPU count: the single 64-bit weight stream\n\
         is the wall (the paper's §V bottleneck), while resources keep growing."
    );

    println!("\nAblation 3 — multi-channel low-precision weight packing (executable)\n");
    let mut t3 = TableWriter::new(&[
        "Model",
        "Lane words",
        "Dense words",
        "Lane us",
        "Dense us",
        "Speedup",
    ]);
    let dense_cfg = HwConfig {
        dense_weight_packing: true,
        ..base
    };
    for model in [ZooModel::TfcW2A2, ZooModel::SfcW2A2] {
        let qm = model.build_untrained(7, BnMode::Folded).unwrap();
        let px = vec![128u8; qm.input.len];
        let lane_loadable =
            netpu_compiler::compile_packed(&qm, &px, netpu_compiler::PackingMode::Lanes8).unwrap();
        let dense_loadable =
            netpu_compiler::compile_packed(&qm, &px, netpu_compiler::PackingMode::Dense).unwrap();
        let lane_us = run_inference(&dense_cfg, lane_loadable.words.clone())
            .unwrap()
            .latency_us;
        let dense_us = run_inference(&dense_cfg, dense_loadable.words.clone())
            .unwrap()
            .latency_us;
        t3.row(&[
            model.name().into(),
            lane_loadable.len().to_string(),
            dense_loadable.len().to_string(),
            format!("{lane_us:.2}"),
            format!("{dense_us:.2}"),
            format!("{:.2}x", lane_us / dense_us),
        ]);
        record.push(serde_json::json!({
            "ablation": "packing", "model": model.name(),
            "lane_words": lane_loadable.len(), "dense_words": dense_loadable.len(),
            "lane_us": lane_us, "dense_us": dense_us,
        }));
    }
    t3.print();
    println!(
        "\n  Dense packing (§V multi-channel future work) cuts the 2-bit weight stream ~4x\n\
         but the latency gain is only ~1.6x: with 8 multiplier lanes, a 32-weight word\n\
         takes 4 dispatch cycles — the bottleneck moves from loading to compute."
    );

    println!("\nAblation 4 — Multi-Threshold precision cap at instance scale\n");
    let mut t4 = TableWriter::new(&["Max MT bits", "Instance LUTs", "LUT rate", "Fits Ultra96"]);
    for bits in [1u8, 2, 4, 8] {
        let cfg = HwConfig {
            max_multithreshold_bits: bits,
            ..base
        };
        let u = netpu_utilization(&cfg);
        t4.row(&[
            bits.to_string(),
            u.luts.to_string(),
            format!("{:.1}%", u.rates(&ULTRA96_V2).luts * 100.0),
            u.fits(&ULTRA96_V2).to_string(),
        ]);
        record.push(serde_json::json!({
            "ablation": "mt_cap", "bits": bits, "luts": u.luts,
            "fits": u.fits(&ULTRA96_V2),
        }));
    }
    t4.print();
    println!(
        "\n  An 8-bit Multi-Threshold cap would need ~5x the platform's LUTs at 16 TNPUs —\n\
         the quantitative reason the paper's instance stops at 4 bits."
    );

    let path = record
        .write(&ExperimentRecord::default_dir())
        .expect("write experiment record");
    println!("\nrecord: {}", path.display());
}
