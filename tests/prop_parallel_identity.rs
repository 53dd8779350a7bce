//! Property test pinning the work-stealing parallel scheduler to the
//! sequential kernel, bit for bit: fault partitioning, stealing order
//! and thread count must never leak into first-detection indices or
//! applied-pattern counts.

use proptest::prelude::*;

use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::netlist::Circuit;
use krishnamurthy_tpi::sim::parallel::run_parallel_opts;
use krishnamurthy_tpi::sim::{FaultSimulator, FaultUniverse, RandomPatterns, SimOptions};

fn small_dag(seed: u64, inputs: usize, gates: usize) -> Circuit {
    let mut cfg = RandomDagConfig::new(inputs, gates, seed);
    cfg.locality = 0.5; // encourage fanout/reconvergence
    random_dag(&cfg).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Two stealing runs at each thread count both match the sequential
    /// simulator.
    #[test]
    fn stealing_is_bit_identical_to_sequential(seed in 0u64..5000, gates in 5usize..40) {
        let c = small_dag(seed, 6, gates);
        let universe = FaultUniverse::collapsed(&c).unwrap();
        let n_inputs = c.inputs().len();
        let mut sim = FaultSimulator::with_options(&c, SimOptions::default()).unwrap();
        let mut src = RandomPatterns::new(n_inputs, seed ^ 0xBEEF);
        let reference = sim.run(&mut src, 320, universe.faults()).unwrap();
        for threads in [2usize, 3, 8] {
            for _ in 0..2 {
                let parallel = run_parallel_opts(
                    &c,
                    || RandomPatterns::new(n_inputs, seed ^ 0xBEEF),
                    320,
                    universe.faults(),
                    threads,
                    SimOptions::default(),
                ).unwrap();
                prop_assert_eq!(
                    reference.patterns_applied(), parallel.patterns_applied(),
                    "patterns threads={}", threads
                );
                for i in 0..universe.len() {
                    prop_assert_eq!(
                        reference.first_detection(i), parallel.first_detection(i),
                        "fault {} threads={}",
                        universe.faults()[i].describe(&c), threads
                    );
                }
            }
        }
    }
}
