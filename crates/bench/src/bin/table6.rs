//! Regenerates Table VI: NetPU-M *measured* latency and wall power
//! (DMA/PS overhead included) against the four FINN instances.

use netpu_bench::{delta, paper, ExperimentRecord, TableWriter};
use netpu_core::resources::netpu_utilization;
use netpu_finn::{instance_utilization, FinnInstance};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::{Driver, PowerParams};

fn measure(driver: &Driver, model: ZooModel, bn: BnMode) -> f64 {
    let qm = model.build_untrained(0xBEEF, bn).expect("build");
    let pixels = vec![128u8; qm.input.len];
    driver
        .infer(&qm, &pixels)
        .expect("infer")
        .measured_latency_us
}

fn main() {
    let driver = Driver::builder().build();
    let mut record = ExperimentRecord::new("table6", "NetPU-M vs FINN comparison");

    println!("Table VI — NetPU-M (Ultra96-V2, 100 MHz, measured) vs FINN (Zynq-7000, 200 MHz)\n");
    println!("NetPU-M instance resources:");
    let u = netpu_utilization(&driver.hw);
    let pr = &paper::TABLE6_NETPU_RESOURCES;
    println!(
        "  paper: {} LUT / {} BRAM / {} DSP   model: {} LUT / {} BRAM / {} DSP\n",
        pr.luts, pr.bram36, pr.dsps, u.luts, u.bram36, u.dsps
    );

    println!("NetPU-M measured latency (us) and wall power:");
    let mut np = TableWriter::new(&[
        "Precision",
        "Model",
        "Paper us",
        "Model us",
        "Δ",
        "Paper W",
        "Model W",
    ]);
    let power = driver.power.wall_power_w(&u, driver.hw.clock_mhz);
    type PrecisionRow<'a> = (&'a str, &'a [(&'a str, ZooModel, BnMode)], f64);
    let rows: [PrecisionRow; 3] = [
        (
            "W1A1",
            &[
                ("TFC", ZooModel::TfcW1A1, BnMode::Folded),
                ("SFC", ZooModel::SfcW1A1, BnMode::Folded),
                ("LFC", ZooModel::LfcW1A1, BnMode::Folded),
            ],
            paper::TABLE6_NETPU[0].power_w,
        ),
        (
            "W2A2",
            &[
                ("TFC", ZooModel::TfcW2A2, BnMode::Folded),
                ("SFC", ZooModel::SfcW2A2, BnMode::Folded),
            ],
            paper::TABLE6_NETPU[1].power_w,
        ),
        (
            "W1A2",
            &[("LFC", ZooModel::LfcW1A2, BnMode::Folded)],
            paper::TABLE6_NETPU[2].power_w,
        ),
    ];
    let paper_cells = |prec: &str, model: &str| -> Option<f64> {
        let row = paper::TABLE6_NETPU.iter().find(|r| r.precision == prec)?;
        match model {
            "TFC" => row.tfc_us,
            "SFC" => row.sfc_us,
            "LFC" => row.lfc_us,
            _ => None,
        }
    };
    for (prec, models, paper_w) in rows {
        for (name, model, bn) in models {
            let got = measure(&driver, *model, *bn);
            let published = paper_cells(prec, name);
            np.row(&[
                prec.into(),
                (*name).into(),
                published.map_or("—".into(), |v| format!("{v:.2}")),
                format!("{got:.2}"),
                published.map_or("—".into(), |v| delta(v, got)),
                format!("{paper_w:.2}"),
                format!("{power:.2}"),
            ]);
            record.push(serde_json::json!({
                "work": "NetPU-M", "precision": prec, "model": name,
                "paper_us": published, "model_us": got,
                "paper_w": paper_w, "model_w": power,
            }));
        }
    }
    np.print();

    println!("\nFINN instances (W1A1):");
    let zc = PowerParams::zc706();
    let mut ft = TableWriter::new(&[
        "Instance",
        "Paper LUT",
        "Model LUT",
        "Paper BRAM",
        "Model BRAM",
        "Paper us",
        "Model us",
        "Δ",
        "Paper W",
        "Model W",
    ]);
    for (inst, p) in FinnInstance::table6().iter().zip(&paper::TABLE6_FINN) {
        let fu = instance_utilization(inst);
        let us = inst.latency_us();
        let w = zc.wall_power_w(&fu, inst.clock_mhz);
        ft.row(&[
            inst.name.into(),
            p.luts.to_string(),
            fu.luts.to_string(),
            p.bram36.to_string(),
            format!("{:.1}", fu.bram36),
            format!("{:.2}", p.latency_us),
            format!("{us:.2}"),
            delta(p.latency_us, us),
            format!("{:.1}", p.power_w),
            format!("{w:.1}"),
        ]);
        record.push(serde_json::json!({
            "work": "FINN", "instance": inst.name,
            "paper": { "luts": p.luts, "bram36": p.bram36, "us": p.latency_us, "w": p.power_w },
            "model": { "luts": fu.luts, "bram36": fu.bram36, "us": us, "w": w },
        }));
    }
    ft.print();

    println!(
        "\nShape checks: one NetPU-M bitstream runs all six models while each FINN\n\
         instance serves one; FINN-max is orders of magnitude faster at 3x the power;\n\
         FINN-fix is comparable in resources but single-model; NetPU-M draws the least\n\
         wall power of all instances."
    );
    let path = record
        .write(&ExperimentRecord::default_dir())
        .expect("write experiment record");
    println!("\nrecord: {}", path.display());
}
