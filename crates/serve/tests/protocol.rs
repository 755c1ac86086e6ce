//! Wire-protocol properties: every request/response variant round-trips
//! bit-exactly through the framed codec, hostile input (malformed,
//! truncated, oversized frames) yields a clean [`FrameError`] — never a
//! panic, never a hang — and a spec asking for more than the `MAX_*` bounds
//! is refused at decode, before the daemon writes anything.

mod common;

use common::tmp_dir;
use felix_records::Json;
use felix_serve::{
    read_frame, write_frame, Client, ClientError, FrameError, JobRow, JobSpec, Request,
    Response, ServeConfig, Server, MAX_FRAME, WAL_FILE,
};
use std::io::BufReader;

/// Deterministic xorshift64* generator so the "property" sweeps are
/// reproducible from their literal seeds.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn f64(&mut self) -> f64 {
        // Raw bit patterns: exercises subnormals, infinities, and NaNs,
        // which only survive the wire because the codec ships bits.
        f64::from_bits(self.next())
    }

    fn string(&mut self) -> String {
        let len = (self.next() % 24) as usize;
        (0..len)
            .map(|_| {
                // Bias toward characters that stress the JSON escaper.
                match self.next() % 8 {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => char::from_u32(0x1f).unwrap(),
                    4 => '\u{1F600}',
                    _ => char::from_u32(0x20 + (self.next() % 0x5e) as u32).unwrap(),
                }
            })
            .collect()
    }
}

/// Round-trips a document through the framed transport and asserts the
/// decoded document *and* its serialized bytes are identical.
fn frame_roundtrip(doc: &Json) -> Json {
    let mut buf = Vec::new();
    write_frame(&mut buf, doc).expect("write_frame");
    let decoded = read_frame(&mut BufReader::new(buf.as_slice())).expect("read_frame");
    assert_eq!(decoded.write(), doc.write(), "frame bytes changed in transit");
    decoded
}

fn spec_doc(rng: &mut Rng) -> Json {
    Json::obj(vec![
        ("model", Json::Str("llama".to_string())),
        ("params", Json::Arr(vec![Json::Num(1.0)])),
        ("device", Json::Str(rng.string())),
        ("rounds", Json::Num((1 + rng.next() % 9) as f64)),
        ("measures", Json::Num((1 + rng.next() % 9) as f64)),
        ("n_seeds", Json::Num((1 + rng.next() % 4) as f64)),
        ("n_steps", Json::Num((1 + rng.next() % 40) as f64)),
        ("warm_cache", Json::Bool(rng.next().is_multiple_of(2))),
        // Free-form extra payload: specs travel opaquely in requests.
        ("note", Json::f64_bits(rng.f64())),
    ])
}

#[test]
fn every_request_variant_roundtrips() {
    let mut rng = Rng(0x5eed_0001);
    for round in 0..200 {
        let requests = [
            Request::Ping,
            Request::Submit { tenant: rng.string(), spec: spec_doc(&mut rng) },
            Request::Status { job_id: rng.next() },
            Request::Cancel { job_id: rng.next() },
            Request::Result { job_id: rng.next() },
            Request::List,
            Request::Shutdown,
        ];
        for request in requests {
            let doc = frame_roundtrip(&request.to_json());
            let decoded = Request::from_json(&doc)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(decoded, request, "request mutated in round {round}");
        }
    }
}

#[test]
fn every_response_variant_roundtrips() {
    let mut rng = Rng(0x5eed_0002);
    for round in 0..200 {
        let result_doc = Json::obj(vec![
            ("latency_ms", Json::f64_bits(rng.f64())),
            (
                "kernels",
                Json::Arr(
                    (0..rng.next() % 4)
                        .map(|_| {
                            Json::obj(vec![
                                ("task", Json::Str(rng.string())),
                                ("latency_ms", Json::f64_bits(rng.f64())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let responses = [
            Response::Pong,
            Response::Ack { job_id: rng.next() },
            Response::JobStatus {
                job_id: rng.next(),
                tenant: rng.string(),
                state: "pending".to_string(),
            },
            Response::JobResult { job_id: rng.next(), result: result_doc },
            Response::Jobs {
                jobs: (0..rng.next() % 5)
                    .map(|i| JobRow {
                        job_id: rng.next(),
                        tenant: rng.string(),
                        state: [
                            "pending",
                            "cancelling",
                            "running",
                            "done",
                            "cancelled",
                            "expired",
                            "quarantined",
                        ][i as usize % 7]
                            .to_string(),
                    })
                    .collect(),
            },
            Response::Busy { live: rng.next(), limit: rng.next() },
            Response::QuotaExceeded {
                tenant: rng.string(),
                live: rng.next(),
                limit: rng.next(),
            },
            Response::Draining,
            Response::Bye,
            Response::Error { message: rng.string() },
        ];
        for response in responses {
            let doc = frame_roundtrip(&response.to_json());
            let decoded = Response::from_json(&doc)
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            assert_eq!(decoded, response, "response mutated in round {round}");
        }
    }
}

#[test]
fn f64_bit_patterns_survive_the_wire_exactly() {
    // The latencies a result carries must come back bit-for-bit — the
    // crash tests compare results byte-wise, so the codec cannot round.
    let awkward = [
        0.1,
        1.0 / 3.0,
        f64::MIN_POSITIVE / 2.0, // subnormal
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -0.0,
        f64::MAX,
    ];
    for &v in &awkward {
        let response = Response::JobResult {
            job_id: 7,
            result: Json::obj(vec![("latency_ms", Json::f64_bits(v))]),
        };
        let doc = frame_roundtrip(&response.to_json());
        let Response::JobResult { result, .. } = Response::from_json(&doc).unwrap() else {
            panic!("wrong variant");
        };
        let got = result.get("latency_ms").and_then(Json::as_f64_bits).unwrap();
        assert_eq!(got.to_bits(), v.to_bits(), "bits changed for {v}");
    }
}

#[test]
fn malformed_frames_are_rejected_not_panicked() {
    let cases: &[&[u8]] = &[
        b"\n",                        // empty line
        b"{\n",                       // truncated JSON
        b"hello world\n",             // not JSON at all
        b"{\"op\": }\n",              // syntax error
        b"[1, 2, 3\n",                // unterminated array
        b"\"lonely string\n",         // unterminated string
        b"{\"op\":\"ping\"}",         // missing trailing newline (EOF mid-frame)
        b"\xff\xfe{\"op\":\"ping\"}\n", // invalid UTF-8
    ];
    for &case in cases {
        let err = read_frame(&mut BufReader::new(case)).expect_err("must reject");
        assert!(
            matches!(err, FrameError::Malformed(_)),
            "{case:?} gave {err:?}, wanted Malformed"
        );
    }
}

#[test]
fn structurally_valid_json_with_bad_shape_is_a_decode_error() {
    let mut rng = Rng(0x5eed_0003);
    for _ in 0..100 {
        // Valid JSON, nonsense protocol: decoding must Err, not panic.
        let docs = [
            Json::obj(vec![("op", Json::Str(rng.string()))]),
            Json::obj(vec![("type", Json::Str(rng.string()))]),
            Json::obj(vec![("op", Json::Num(rng.f64()))]),
            Json::Arr(vec![Json::Null]),
            Json::Num(rng.f64()),
            Json::obj(vec![("op", Json::Str("status".to_string()))]), // missing job
            Json::obj(vec![
                ("op", Json::Str("status".to_string())),
                ("job", Json::Str("not-hex!".to_string())),
            ]),
        ];
        for doc in docs {
            if let Ok(req) = Request::from_json(&doc) {
                // The only way a random string forms a request is by
                // exactly hitting a keyword op.
                assert!(
                    matches!(req, Request::Ping | Request::List | Request::Shutdown),
                    "{} decoded to {req:?}",
                    doc.write()
                );
            }
            // Response decode must also never panic.
            let _ = Response::from_json(&doc);
        }
    }
}

#[test]
fn oversized_frames_are_cut_off() {
    let mut line = vec![b'['; MAX_FRAME + 10];
    line.push(b'\n');
    let err = read_frame(&mut BufReader::new(line.as_slice())).expect_err("must reject");
    assert_eq!(err, FrameError::Oversized);

    // Exactly at the cap (content + newline == MAX_FRAME) still parses.
    let payload = "x".repeat(MAX_FRAME - 3);
    let line = format!("\"{payload}\"\n");
    assert_eq!(line.len(), MAX_FRAME);
    let doc = read_frame(&mut BufReader::new(line.as_bytes())).expect("at-cap frame");
    assert_eq!(doc.as_str(), Some(payload.as_str()));
}

#[test]
fn clean_eof_between_frames_is_closed() {
    let empty: &[u8] = b"";
    assert_eq!(read_frame(&mut BufReader::new(empty)), Err(FrameError::Closed));
}

#[test]
fn back_to_back_frames_read_in_order() {
    let mut buf = Vec::new();
    write_frame(&mut buf, &Request::Ping.to_json()).unwrap();
    write_frame(&mut buf, &Request::List.to_json()).unwrap();
    write_frame(&mut buf, &Request::Shutdown.to_json()).unwrap();
    let mut reader = BufReader::new(buf.as_slice());
    let ops: Vec<Request> = (0..3)
        .map(|_| Request::from_json(&read_frame(&mut reader).unwrap()).unwrap())
        .collect();
    assert_eq!(ops, vec![Request::Ping, Request::List, Request::Shutdown]);
    assert_eq!(read_frame(&mut reader), Err(FrameError::Closed));
}

#[test]
fn specs_over_a_limit_are_rejected_at_decode() {
    use felix_serve::spec::{MAX_MEASURES, MAX_PARAM, MAX_ROUNDS, MAX_SEEDS, MAX_STEPS};
    let at_limit = JobSpec {
        params: vec![MAX_PARAM, 1, 1, 1, MAX_PARAM, 1],
        rounds: MAX_ROUNDS,
        measures: MAX_MEASURES,
        n_seeds: MAX_SEEDS,
        n_steps: MAX_STEPS,
        ..JobSpec::quick("llama", vec![1], "RTX A5000", 1)
    };
    assert_eq!(JobSpec::from_json(&at_limit.to_json()), Ok(at_limit.clone()));
    let huge = 1usize << 40;
    let over: [(&str, JobSpec); 10] = [
        ("rounds", JobSpec { rounds: MAX_ROUNDS + 1, ..at_limit.clone() }),
        ("measures", JobSpec { measures: MAX_MEASURES + 1, ..at_limit.clone() }),
        ("n_seeds", JobSpec { n_seeds: MAX_SEEDS + 1, ..at_limit.clone() }),
        ("n_steps", JobSpec { n_steps: MAX_STEPS + 1, ..at_limit.clone() }),
        ("rounds", JobSpec { rounds: huge, ..at_limit.clone() }),
        ("measures", JobSpec { measures: huge, ..at_limit.clone() }),
        ("n_seeds", JobSpec { n_seeds: huge, ..at_limit.clone() }),
        ("n_steps", JobSpec { n_steps: huge, ..at_limit.clone() }),
        ("parameter", JobSpec { params: vec![MAX_PARAM + 1], ..at_limit.clone() }),
        ("parameter", JobSpec { params: vec![1, 1, 1, 1, 1 << 40, 1], ..at_limit.clone() }),
    ];
    for (field, spec) in over {
        let err = JobSpec::from_json(&spec.to_json()).expect_err("over-limit spec decoded");
        assert!(err.contains(field), "{field}: rejection {err:?} does not name the field");
    }
}

#[test]
fn an_over_limit_submit_is_refused_before_the_wal() {
    let dir = tmp_dir("overlimit");
    let server = Server::start(&ServeConfig::new("127.0.0.1:0", &*dir, 1)).expect("start");
    let wal = dir.join(WAL_FILE);
    let before = std::fs::read(&wal).expect("wal exists after start");
    let mut client = Client::connect(server.addr).expect("connect");
    let spec = JobSpec {
        n_seeds: 1 << 40,
        n_steps: 1 << 40,
        ..JobSpec::quick("llama", vec![1], "RTX A5000", 1)
    };
    match client.submit("acme", &spec) {
        Err(ClientError::Server(message)) => assert!(message.contains("n_seeds"), "{message}"),
        other => panic!("over-limit submit answered {other:?}"),
    }
    assert!(client.list().expect("list").is_empty(), "nothing was queued");
    assert_eq!(std::fs::read(&wal).expect("wal"), before, "the WAL was touched");
    server.shutdown_and_wait();
}
