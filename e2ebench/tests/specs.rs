//! Every job kind's serve request parses to the job the in-process runs
//! execute, so a daemon payload and an in-process output come from the
//! same spec.

use std::path::PathBuf;

use lowvolt_e2ebench::jobs::{NetlistFile, Spec, KINDS};
use lowvolt_serve::proto::{parse_request, Request};

fn every_kind() -> Vec<Spec> {
    // A path that needs escaping in JSON.
    let netlist = NetlistFile {
        path: PathBuf::from("in \"quotes\"\\dir/n.blif"),
        gates: 10,
        bytes: 100,
    };
    let compiled = Spec::CampaignCompiled {
        netlist: netlist.clone(),
        seed: 987_654_321_012,
    };
    vec![
        Spec::Sta {
            netlist: netlist.clone(),
            vdd: 1.234_567_890_123,
            vt: 0.3,
        },
        Spec::Lint {
            netlist: netlist.clone(),
        },
        Spec::Optimize { netlist },
        Spec::Profile {
            example: "fir",
            budget: 200_123_456,
        },
        compiled.clone(),
        Spec::CampaignEvent { seed: 17, width: 8 },
        Spec::Replay(Box::new(compiled)),
    ]
}

#[test]
fn every_request_parses_to_the_in_process_job() {
    let specs = every_kind();
    let kinds: Vec<&str> = specs.iter().map(Spec::kind).collect();
    assert_eq!(kinds, KINDS);
    for spec in specs {
        let request = spec.request();
        match parse_request(&request) {
            Ok(Request::Job(job)) => {
                assert_eq!(job.kind, spec.job(), "{request}");
                assert_eq!((job.threads, job.shard_items), (None, None), "{request}");
            }
            other => panic!("{request} parsed to {other:?}"),
        }
    }
}
