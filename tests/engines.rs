//! Cross-engine integration tests: fluid vs slot-granular vs task-granular,
//! and the dynamic (work-aware) policies.

use amf::core::AmfSolver;
use amf::sim::tasks::{simulate_tasks, TaskJob, TaskTrace};
use amf::sim::{simulate, simulate_dynamic, SimConfig, SrptPerSite};
use amf::workload::trace::{Trace, TraceJob};

/// A workload expressed in both fluid and task terms: 3 jobs on 2 sites,
/// unit tasks, integral slot counts.
fn paired_traces() -> (Trace, TaskTrace) {
    // job: (tasks at site0, tasks at site1), duration 1, parallelism 4.
    let specs: [(u32, u32); 3] = [(8, 0), (4, 4), (0, 8)];
    let fluid = Trace {
        capacities: vec![4.0, 4.0],
        jobs: specs
            .iter()
            .map(|&(a, b)| TraceJob {
                arrival: 0.0,
                work: vec![a as f64, b as f64],
                demand: vec![if a > 0 { 4.0 } else { 0.0 }, if b > 0 { 4.0 } else { 0.0 }],
            })
            .collect(),
    };
    let tasks = TaskTrace {
        capacities: vec![4.0, 4.0],
        jobs: specs
            .iter()
            .map(|&(a, b)| TaskJob {
                arrival: 0.0,
                tasks: vec![a, b],
                duration: 1.0,
                max_parallelism: 4.0,
            })
            .collect(),
    };
    (fluid, tasks)
}

#[test]
fn fluid_and_task_engines_agree_on_aligned_workloads() {
    let (fluid_trace, task_trace) = paired_traces();
    let fluid = simulate(&fluid_trace, &AmfSolver::new(), &SimConfig::default());
    let tasks = simulate_tasks(&task_trace, &AmfSolver::new());
    assert!(fluid.all_finished() && tasks.all_finished());
    // Task granularity can only slow things down (integrality +
    // non-preemption), and on this aligned workload not by much.
    for (f, t) in fluid.jobs.iter().zip(&tasks.jobs) {
        let fj = f.jct().unwrap();
        let tj = t.jct().unwrap();
        assert!(
            tj >= fj - 1e-9,
            "task engine faster than fluid: {tj} < {fj}"
        );
        assert!(tj <= fj * 2.0 + 1e-9, "task engine unreasonably slow");
    }
}

#[test]
fn srpt_minimizes_mean_jct_but_starves() {
    // One site, three jobs of very different sizes, all elastic.
    let trace = Trace {
        capacities: vec![10.0],
        jobs: [10.0, 50.0, 200.0]
            .iter()
            .map(|&w| TraceJob {
                arrival: 0.0,
                work: vec![w],
                demand: vec![10.0],
            })
            .collect(),
    };
    let srpt = simulate_dynamic(&trace, &SrptPerSite);
    let fair = simulate(&trace, &AmfSolver::new(), &SimConfig::default());
    assert!(srpt.all_finished() && fair.all_finished());
    // SRPT is the mean-JCT efficiency bound...
    assert!(
        srpt.mean_jct() <= fair.mean_jct() + 1e-9,
        "srpt {} vs fair {}",
        srpt.mean_jct(),
        fair.mean_jct()
    );
    // ...but the small job under fairness never waits behind the big one,
    // and under SRPT the big job is strictly last.
    assert!(srpt.jobs[0].jct().unwrap() <= fair.jobs[0].jct().unwrap() + 1e-9);
    assert!((srpt.jobs[2].jct().unwrap() - srpt.makespan).abs() < 1e-9);
}

#[test]
fn task_engine_handles_staggered_arrivals() {
    let trace = TaskTrace {
        capacities: vec![2.0],
        jobs: vec![
            TaskJob {
                arrival: 0.0,
                tasks: vec![4],
                duration: 1.0,
                max_parallelism: 2.0,
            },
            TaskJob {
                arrival: 0.5,
                tasks: vec![2],
                duration: 1.0,
                max_parallelism: 2.0,
            },
        ],
    };
    let report = simulate_tasks(&trace, &AmfSolver::new());
    assert!(report.all_finished());
    assert!(
        report.makespan >= 3.0 - 1e-9,
        "6 unit tasks on 2 slots need >= 3"
    );
}
