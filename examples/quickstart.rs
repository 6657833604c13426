//! Quickstart: compute an AMF allocation, compare it with the per-site
//! baseline, and verify the fairness properties from the paper.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use amf::audit::{envy_cert, pareto_cert, si_cert};
use amf::core::{AllocationPolicy, AmfSolver, Instance, PerSiteMaxMin};

fn main() {
    // Two sites (a large and a small datacenter). Job 0's data lives only
    // at site 0; job 1 has tasks at both sites.
    let inst = Instance::new(
        vec![6.0, 2.0],
        vec![
            vec![6.0, 0.0], // job 0: confined to site 0
            vec![6.0, 2.0], // job 1: spans both sites
        ],
    )
    .expect("valid instance");

    // Conventional per-site max-min fairness: each site is split fairly in
    // isolation, but job 1 collects resource at both sites.
    let psmf = PerSiteMaxMin.allocate(&inst);
    println!("per-site max-min aggregates: {:?}", psmf.aggregates());

    // Aggregate Max-min Fairness: the totals themselves are max-min fair.
    let amf = AmfSolver::new().solve(&inst).allocation;
    println!("AMF aggregates:              {:?}", amf.aggregates());
    println!("AMF split matrix:            {:?}", amf.split());

    // The properties the paper proves for AMF, each certified by the
    // auditor with a witness or a counterexample.
    println!(
        "pareto efficient:  {}",
        pareto_cert(&inst, &amf).is_proved()
    );
    println!("envy free:         {}", envy_cert(&inst, &amf).is_proved());
    println!(
        "sharing incentive: {} (not guaranteed for plain AMF!)",
        si_cert(&inst, &amf).is_proved()
    );

    // Enhanced AMF guarantees the sharing incentive property.
    let enhanced = AmfSolver::enhanced().solve(&inst).allocation;
    println!(
        "enhanced AMF aggregates: {:?} (sharing incentive: {})",
        enhanced.aggregates(),
        si_cert(&inst, &enhanced).is_proved()
    );
}
