//! Quickstart: the paper's Fig. 5 workflow — optimize ResNet-50 for the
//! Jetson Xavier NX with a few lines of code.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use felix::{extract_subgraphs, pretrained_cost_model, ModelQuality, Optimizer};
use felix_graph::models;
use felix_sim::DeviceConfig;

fn main() {
    // Define the hardware target to optimize for.
    let device = DeviceConfig::xavier_nx();
    // Define the DNN to optimize (input shape [1, 3, 256, 256]).
    let dnn = models::resnet50(1);
    // Extract subgraphs to tune from the DNN.
    let graphs = extract_subgraphs(&dnn);
    println!(
        "{}: {} operator nodes -> {} tuning tasks",
        dnn.name,
        dnn.nodes.len(),
        graphs.len()
    );
    // Get a pretrained cost model for the target device: a small model,
    // trained in seconds and memoized per device.
    let cost_model = pretrained_cost_model(&device, ModelQuality::Fast);
    // The Optimizer sets up the search space and the differentiable
    // objective for each subgraph.
    let mut opt = Optimizer::new(graphs, cost_model, device);
    // Run the search: every task gets at least one round here; raise the
    // round count for better results.
    let n_rounds = opt.tasks().len() * 2;
    let result = opt.optimize_all(n_rounds, 16);
    println!(
        "tuned to {:.3} ms in {:.0} simulated seconds",
        result.final_latency_ms,
        opt.tuning_time_s()
    );
    // Apply the best schedules found for each subgraph and generate a
    // compiled module.
    let compiled = opt.compile_with_best_configs();
    print!("{}", compiled.summary());
    // The module can be "run" (replayed through the device simulator).
    let mut rng = rand::thread_rng();
    println!("one inference: {:.3} ms", compiled.run(&mut rng));
}
