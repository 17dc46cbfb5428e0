//! The metric names the command prints are the ones `BENCHMARK.json`
//! declares, in both of its metric lists.

fn names_in(json: &str, list: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name ends")].to_string()
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(names_in(&json, "end_to_end"), hcbench::END_TO_END);
    assert_eq!(names_in(&json, "per_layer"), hcbench::PER_LAYER);
    assert_eq!(names_in(&json, "workloads"), hcbench::WORKLOADS);
}
