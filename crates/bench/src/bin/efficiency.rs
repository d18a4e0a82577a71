//! Energy efficiency: the figure the paper's Table VI power data
//! implies but does not draw. Energy per inference (µJ) and inferences
//! per joule for NetPU-M vs the FINN instances, plus the multi-board
//! scaling curve from `netpu-runtime::Cluster`.

use netpu_bench::{ExperimentRecord, TableWriter};
use netpu_finn::{instance_utilization, FinnInstance};
use netpu_nn::export::BnMode;
use netpu_nn::zoo::ZooModel;
use netpu_runtime::{Cluster, Driver, PowerParams};

fn main() {
    let driver = Driver::builder().build();
    let mut record = ExperimentRecord::new("efficiency", "Energy per inference and scaling");

    println!("Energy per inference (NetPU-M measured, FINN from published latency):\n");
    let mut t = TableWriter::new(&["Work", "Model", "Latency us", "Power W", "uJ/inf", "inf/J"]);
    for zm in ZooModel::ALL {
        let qm = zm.build_untrained(1, BnMode::Folded).unwrap();
        let run = driver.infer(&qm, &vec![128u8; qm.input.len]).unwrap();
        t.row(&[
            "NetPU-M".into(),
            zm.name().into(),
            format!("{:.2}", run.measured_latency_us),
            format!("{:.2}", run.power_w),
            format!("{:.0}", run.energy_uj),
            format!("{:.0}", 1e6 / run.energy_uj),
        ]);
        record.push(serde_json::json!({
            "work": "NetPU-M", "model": zm.name(),
            "latency_us": run.measured_latency_us, "power_w": run.power_w,
            "energy_uj": run.energy_uj,
        }));
    }
    let zc = PowerParams::zc706();
    for inst in FinnInstance::table6() {
        let u = instance_utilization(&inst);
        let us = inst.latency_us();
        let w = zc.wall_power_w(&u, inst.clock_mhz);
        let uj = w * us;
        t.row(&[
            "FINN".into(),
            inst.name.into(),
            format!("{us:.2}"),
            format!("{w:.2}"),
            format!("{uj:.1}"),
            format!("{:.0}", 1e6 / uj),
        ]);
        record.push(serde_json::json!({
            "work": "FINN", "model": inst.name,
            "latency_us": us, "power_w": w, "energy_uj": uj,
        }));
    }
    t.print();
    println!(
        "\nShape: FINN-max dominates energy per inference (its latency advantage\n\
         outruns its 3x power draw); NetPU-M's draw is lowest but it pays the\n\
         full weight stream every inference — generality costs energy, not watts."
    );

    println!("\nMulti-board throughput scaling (SFC-w1a1, shared host DMA):\n");
    let sfc = ZooModel::SfcW1A1
        .build_untrained(1, BnMode::Folded)
        .unwrap();
    let mut t2 = TableWriter::new(&["Boards", "fps", "Bound", "Cluster W", "inf/J"]);
    for boards in [1usize, 2, 3, 4, 6, 8] {
        let cluster = Cluster::new(boards, driver.clone());
        let tp = cluster.throughput(&sfc).unwrap();
        let bound = if tp.fps < tp.transfer_bound_fps {
            "compute"
        } else {
            "stream"
        };
        let w = cluster.power_w();
        t2.row(&[
            boards.to_string(),
            format!("{:.0}", tp.fps),
            bound.into(),
            format!("{w:.1}"),
            format!("{:.0}", tp.fps / w),
        ]);
        record.push(serde_json::json!({
            "scaling": { "boards": boards, "fps": tp.fps, "bound": bound, "power_w": w },
        }));
    }
    t2.print();
    println!(
        "\nThe shared stream link caps the cluster: once stream-bound, extra boards\n\
         burn watts without adding throughput (inf/J degrades)."
    );
    let path = record
        .write(&ExperimentRecord::default_dir())
        .expect("write experiment record");
    println!("\nrecord: {}", path.display());
}
