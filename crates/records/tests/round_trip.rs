//! Every record type declared with `schema!` round-trips through its wire
//! table bit for bit over seeded values, and a document missing any
//! required key does not decode (see `support/wire.rs`).

use felix_records::jobs::JobOutcome;
use felix_records::{
    HealthRecord, JobRecord, Json, RecordOutcome, RoundRecord, StoredSchedule, TuningRecord,
};

#[path = "support/wire.rs"]
mod wire;

use wire::{round_trips, Rng};

#[test]
fn every_record_type_round_trips_and_needs_every_required_key() {
    let mut rng = Rng(0x5EED_0F5C_4E3A);
    for _ in 0..300 {
        let fault = rng.next().is_multiple_of(2);
        let record = TuningRecord {
            task_key: rng.hex(),
            task_name: rng.text(),
            sketch: rng.count(),
            sketch_name: rng.text(),
            values: rng.list(Rng::num),
            outcome: if fault {
                RecordOutcome::Fault(rng.text())
            } else {
                RecordOutcome::Ok(rng.num())
            },
            retries: rng.count(),
            time_s: rng.num(),
        };
        // The unused half of the outcome may be absent.
        let unused = if fault { "latency_ms" } else { "fault" };
        round_trips(&record, TuningRecord::to_json, TuningRecord::from_json, &[unused]);

        let health = HealthRecord {
            task_key: rng.hex(),
            round: rng.count(),
            nonfinite_events: rng.count(),
            divergence_events: rng.count(),
            seed_restarts: rng.count(),
            grad_clips: rng.count(),
            panics_caught: rng.count(),
            modes: rng.list(Rng::text),
            time_s: rng.num(),
        };
        round_trips(&health, HealthRecord::to_json, HealthRecord::from_json, &[]);

        let round = RoundRecord {
            round: rng.count(),
            task: rng.count(),
            lines: rng.count(),
            rng: [rng.hex(), rng.hex(), rng.hex(), rng.hex()],
            clock_s: rng.bits(),
        };
        round_trips(&round, RoundRecord::to_json, RoundRecord::from_json, &[]);

        let schedule = StoredSchedule {
            task_key: rng.hex(),
            workload_key: rng.text(),
            device: rng.text(),
            structure_hash: rng.hex(),
            sketch: rng.count(),
            sketch_name: rng.text(),
            generator: rng.hex(),
            values: rng.list(Rng::bits),
            latency_ms: rng.bits(),
        };
        round_trips(&schedule, StoredSchedule::to_json, StoredSchedule::from_json, &[]);

        let outcomes =
            [JobOutcome::Done, JobOutcome::Cancelled, JobOutcome::Expired, JobOutcome::Quarantined];
        let doc = Json::obj(vec![("x", Json::Arr(Vec::new())), ("s", Json::Str(rng.text()))]);
        let job = match rng.next() % 4 {
            0 => JobRecord::Submitted {
                job_id: rng.hex(),
                tenant: rng.text(),
                spec: doc,
                submitted_at_ms: rng.hex(),
            },
            1 => JobRecord::CancelRequested { job_id: rng.hex() },
            2 => JobRecord::CrashCounted { job_id: rng.hex(), count: rng.next() as u32 },
            _ => JobRecord::Finished {
                job_id: rng.hex(),
                outcome: outcomes[(rng.next() % 4) as usize],
                rounds: rng.count(),
                latency_ms: rng.bits(),
                result: doc,
            },
        };
        round_trips(&job, JobRecord::to_json, JobRecord::from_json, &[]);
    }
}
