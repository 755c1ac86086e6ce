//! Figure 9: single-operator performance of Felix, Ansor, PyTorch, and
//! TensorFlow on RTX A5000, normalized to the best framework per operator.
//!
//! Operators are taken from the evaluated networks: Conv2d, TConv2d,
//! Conv3d, Dense, BatchMatmul, Softmax, MaxPool.

use felix_bench::{ansor_tool, cached_model, felix_tool, tune_single_task, write_result, Scale};
use felix_graph::{Op, Subgraph, Task};
use felix_sim::vendor::{vendor_task_latency, Vendor};
use felix_sim::DeviceConfig;

fn main() {
    felix_bench::out_dir_from_args();
    let scale = Scale::from_env();
    let dev = DeviceConfig::a5000();
    let model = cached_model(&dev, scale);
    let ops: Vec<(&str, Subgraph)> = vec![
        (
            // A late ResNet-50 stage-3 convolution.
            "Conv2d",
            Subgraph {
                ops: vec![Op::Conv2d { n: 1, c: 256, k: 256, h: 16, r: 3, stride: 1, pad: 1, groups: 1 }],
            },
        ),
        (
            "TConv2d",
            Subgraph {
                ops: vec![Op::ConvTranspose2d { n: 1, c: 256, k: 128, h: 8, r: 4, stride: 2, pad: 1 }],
            },
        ),
        (
            "Conv3d",
            Subgraph {
                ops: vec![Op::Conv3d { n: 1, c: 64, k: 128, d: 8, h: 28, r: 3, stride: 2, pad: 1 }],
            },
        ),
        // The ResNet-50 classifier head (batch-1 GEMV, library-unfriendly).
        ("Dense", Subgraph { ops: vec![Op::Dense { m: 1, k: 2048, n: 1000 }] }),
        ("BatchMatmul", Subgraph { ops: vec![Op::BatchMatmul { b: 12, m: 50, k: 64, n: 50 }] }),
        ("Softmax", Subgraph { ops: vec![Op::Softmax { rows: 600, cols: 50 }] }),
        (
            "MaxPool",
            Subgraph { ops: vec![Op::MaxPool2d { n: 1, c: 64, h: 112, r: 3, stride: 2, pad: 1 }] },
        ),
    ];
    let rounds = if scale == Scale::Fast { 2 } else { 12 };
    let mut csv = String::from("op,pytorch_ms,tensorflow_ms,felix_ms,ansor_ms\n");
    println!("Figure 9: single-operator performance on RTX A5000 (normalized, best = 1.00)");
    println!(
        "{:<12} {:>9} {:>10} {:>9} {:>9}    normalized",
        "operator", "PyTorch", "TensorFlow", "Felix", "Ansor"
    );
    let mut felix_wins = 0usize;
    for (name, sg) in &ops {
        let task = Task { subgraph: sg.clone(), weight: 1 };
        let pt = vendor_task_latency(sg, Vendor::PyTorch, &dev);
        let tf = vendor_task_latency(sg, Vendor::TensorFlow, &dev);
        let (mut fprop, felix_opts) = felix_tool(scale);
        let felix = tune_single_task(&task, &dev, &model, &mut fprop, &felix_opts, rounds, 21)
            .task
            .best_latency_ms;
        let (mut aprop, ansor_opts) = ansor_tool(scale.ansor_population().min(1024));
        let ansor = tune_single_task(&task, &dev, &model, &mut aprop, &ansor_opts, rounds, 21)
            .task
            .best_latency_ms;
        let best = pt.min(tf).min(felix).min(ansor);
        println!(
            "{:<12} {:>8.4}  {:>8.4}  {:>8.4}  {:>8.4}    [{:.2} {:.2} {:.2} {:.2}]",
            name, pt, tf, felix, ansor,
            best / pt, best / tf, best / felix, best / ansor
        );
        if felix <= pt && felix <= tf {
            felix_wins += 1;
        }
        csv.push_str(&format!("{name},{pt:.6},{tf:.6},{felix:.6},{ansor:.6}\n"));
    }
    println!("\nFelix beats both kernel libraries on {felix_wins}/{} operator types", ops.len());
    println!("(paper: 7/8, with Conv3d as the exception)");
    write_result("fig9_operators.csv", &csv);
}
