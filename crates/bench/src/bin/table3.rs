//! Regenerates Table III: the LPU data-buffer cluster geometry, plus
//! its block-RAM mapping (which feeds the Table V BRAM column).

use netpu_bench::{ExperimentRecord, TableWriter};
use netpu_core::lpu::{Lpu, BUFFER_CLUSTER};
use netpu_sim::fifo::bram36_for;

fn main() {
    println!("Table III — Data Buffer Cluster in LPU\n");
    let mut table = TableWriter::new(&["Buffer Name", "Output Width", "Depth", "BRAM36"]);
    let mut record = ExperimentRecord::new("table3", "LPU data-buffer cluster");
    for &(name, width, depth) in &BUFFER_CLUSTER {
        let bram = bram36_for(width, depth);
        table.row(&[
            name.to_string(),
            format!("{width} bits"),
            depth.to_string(),
            format!("{bram}"),
        ]);
        record.push(serde_json::json!({
            "buffer": name, "width_bits": width, "depth": depth, "bram36": bram,
        }));
    }
    table.print();
    println!(
        "\nPer-LPU buffer BRAM total: {} RAMB36 (paper instance: 2 LPUs → {}).",
        Lpu::buffer_bram36(),
        2.0 * Lpu::buffer_bram36()
    );
    println!(
        "Max input length / neuron count per layer at 8-bit precision: 8192 (paper §III.B.2)."
    );
    let path = record
        .write(&ExperimentRecord::default_dir())
        .expect("write experiment record");
    println!("\nrecord: {}", path.display());
}
