//! §4.1 ablation: superiteration chunking on the privatization protocol.

use specrt_bench::harness::bench_default;
use specrt_core::experiments::{ablation_chunking_jobs, ablation_track_block_jobs};
use specrt_machine::{run_scenario, Scenario, ScheduleKind};
use specrt_spec::IterationNumbering;
use specrt_workloads::Scale;

fn main() {
    for r in ablation_chunking_jobs(Scale::Smoke, 1) {
        println!(
            "chunking[chunk={}]: {} cycles, {} read-first signals, {} stamp bits",
            r.chunk, r.hw_cycles, r.read_first_signals, r.stamp_bits
        );
    }
    for r in ablation_track_block_jobs(Scale::Smoke, 1) {
        println!(
            "track-block[block={}]: passed={} {} cycles",
            r.block, r.passed, r.hw_cycles
        );
    }
    for chunk in [1u64, 16, 64] {
        let mut spec = specrt_workloads::p3m::instance(200, false);
        if chunk > 1 {
            spec.numbering = IterationNumbering::chunked(chunk);
            spec.schedule = ScheduleKind::BlockCyclic { block: chunk };
        }
        bench_default(&format!("ablation/p3m_chunk{chunk}"), || {
            run_scenario(&spec, Scenario::Hw, 16)
        });
    }
}
