//! Periodic reading with churn: who benefits from remembering the last
//! round?
//!
//! The paper evaluates single cold inventory rounds; its motivating
//! workload (§I) is *periodic*. This example runs successive rounds with
//! tags arriving and departing, comparing a warm ABS session (the
//! "adaptive" feature of Myung-Lee's protocol: an unchanged population
//! re-reads in pure singletons), a warm FCAT session (estimator
//! warm-start), and stateless DFSA.
//!
//! ```text
//! cargo run --release --example periodic_reading [tags] [rounds]
//! ```

use anc_rfid::anc::FcatSession;
use anc_rfid::prelude::*;
use anc_rfid::protocols::{AbsSession, AqsSession};
use anc_rfid::sim::rounds::{MultiRoundSession, StatelessSession};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(Ok(3_000), |a| a.parse())?;
    let rounds: usize = args.next().map_or(Ok(6), |a| a.parse())?;
    let config = SimConfig::default().with_seed(11);

    // A tag leaves after each round with probability d when its dwell is
    // exponential with mean -1/ln(1 - d), rounded up to whole rounds.
    let churn = |d: f64, arrivals: usize| {
        let model = DwellModel::poisson(arrivals as f64, -1.0 / (1.0 - d).ln());
        PopulationSchedule::generate(&model, n, rounds, config.seed())
    };
    for (label, schedule) in [
        (
            "static shelves (no churn)",
            PopulationSchedule::static_population(n, rounds, config.seed()),
        ),
        ("light churn (2% out, 2% in)", churn(0.02, n / 50)),
        ("heavy churn (30% out, 30% in)", churn(0.3, n * 3 / 10)),
    ] {
        println!("== {label}, {n} tags, {rounds} rounds ==");
        println!(
            "{:<16} {:>12} {:>12} {:>14}",
            "session", "round 1", "warm rounds", "total air time"
        );
        let mut sessions: Vec<Box<dyn MultiRoundSession>> = vec![
            Box::new(FcatSession::new(FcatConfig::default())),
            Box::new(AbsSession::new()),
            Box::new(AqsSession::new()),
            Box::new(StatelessSession::new(Dfsa::new())),
        ];
        for session in &mut sessions {
            let report = run_monitoring(
                session.as_mut(),
                &schedule,
                &MonitorConfig::default(),
                &config,
            )?;
            println!(
                "{:<16} {:>10.1}/s {:>10.1}/s {:>13.1}s",
                report.session,
                report.per_round[0].throughput_tags_per_sec,
                report.warm_throughput(),
                report.elapsed_us / 1e6
            );
        }
        println!();
    }
    println!(
        "ABS's tree memory dominates on static shelves (every warm round is\n\
         pure singletons) but decays with churn; FCAT is churn-insensitive\n\
         and wins once the population moves."
    );
    Ok(())
}
