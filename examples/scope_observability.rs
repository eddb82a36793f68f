//! fv-scope end to end: sample a run in virtual time, export the span
//! trace for `chrome://tracing`, and assert rate-conformance SLOs.
//!
//! Run with: `cargo run --release --example scope_observability`

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use fv_scope::{chrome_trace, evaluate, latency_table, SamplerConfig, Slo, TimeSampler};
use fv_telemetry::Registry;
use netstack::flow::FlowKey;
use netstack::gen::CbrProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{drive, Source};
use np_sim::nic::SmartNic;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 10 Gbps link split 2G/8G between two tenants (weights matched
    // to the guarantees), both saturated.
    let policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv default 1:20\n\
         fv class add dev nic0 parent root classid 1:1 name link rate 10gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name small weight 1 rate 2gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name big weight 4 rate 8gbit\n\
         fv filter add dev nic0 match vf 0 flowid 1:10\n\
         fv filter add dev nic0 match vf 1 flowid 1:20\n",
    )?;

    let cfg = NicConfig::agilio_cx_10g();
    let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)?;

    // Everything observable hangs off one registry: counters, the span
    // histograms, and the trace ring the Chrome export reads.
    let registry = Registry::with_ring_capacity(1 << 14);
    let mut nic = SmartNic::with_registry(cfg, Box::new(pipeline), &registry);
    if let Some(p) = nic.decider_as::<FlowValvePipeline>() {
        p.attach_telemetry(&registry);
    }

    // The sampler ticks on *virtual* time: advance it from the event
    // loop and it snapshots counter deltas at every interval boundary.
    let mut sampler = TimeSampler::new(
        &registry,
        SamplerConfig::default().with_interval(Nanos::from_micros(500)),
    );

    let cbr = |gbps| Box::new(CbrProcess::new(BitRate::from_gbps(gbps), 1_518));
    let sources = vec![
        Source {
            flow: FlowKey::tcp([10, 0, 0, 1], 40_001, [10, 0, 255, 1], 443),
            app: AppId(0),
            vf: VfPort(0),
            process: cbr(6.0),
        },
        Source {
            flow: FlowKey::tcp([10, 0, 0, 2], 40_002, [10, 0, 255, 1], 9000),
            app: AppId(1),
            vf: VfPort(1),
            process: cbr(12.0),
        },
    ];
    let horizon = Nanos::from_millis(10);
    drive(sources, horizon, 7, |pkt| {
        sampler.advance_to(pkt.created_at);
        let _ = nic.rx(pkt, pkt.created_at);
    });
    sampler.advance_to(horizon);
    let snapshot = registry.snapshot(horizon);

    // 1. Time series: the last few CSV rows, one column per counter.
    let csv = sampler.to_csv();
    println!(
        "-- timeseries (last 3 of {} frames) --",
        sampler.frames().count()
    );
    for line in csv
        .lines()
        .take(1)
        .chain(csv.lines().skip(csv.lines().count() - 3))
    {
        println!("{line}");
    }

    // 2. Span trace: per-stage latency, plus a Chrome-trace document you
    //    would normally write to disk and open in chrome://tracing.
    println!("\n-- per-stage latency --");
    print!("{}", latency_table(&snapshot));
    let ring = registry.ring();
    let doc = chrome_trace(&ring.recent(ring.capacity()));
    let spans = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .map_or(0, |a| a.len());
    println!("chrome trace: {spans} events (write doc.to_pretty() to a file to view)");

    // 3. Conformance: both guarantees must hold over the steady half.
    let slos = [
        Slo::RateBetween {
            name: "small achieves its 2G guarantee".into(),
            series: "fv.class.1:10.tx_bits".into(),
            min: 0.95 * 2e9,
            max: f64::INFINITY,
        },
        Slo::RateBetween {
            name: "big achieves its 8G guarantee".into(),
            series: "fv.class.1:20.tx_bits".into(),
            min: 0.95 * 8e9,
            max: f64::INFINITY,
        },
    ];
    let report = evaluate(&slos, &sampler, (Nanos::from_millis(5), horizon));
    println!("\n{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err("rate-conformance SLOs failed".into())
    }
}
