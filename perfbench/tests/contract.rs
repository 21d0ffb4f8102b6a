//! `BENCHMARK.json` and `perfbench/layers.json` agree with the metric
//! registry the benchmark prints from.

use std::collections::{BTreeMap, BTreeSet};

use perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;

/// A JSON value, parsed by the minimal reader below.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}")),
            _ => panic!("not an object looking up {key:?}"),
        }
    }
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }
    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key")
                    };
                    self.eat(b':');
                    fields.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                while self.s[self.i] != b'"' {
                    if self.s[self.i] == b'\\' {
                        self.i += 1;
                        out.push(match self.s[self.i] {
                            b'n' => '\n',
                            b't' => '\t',
                            c => c as char,
                        });
                        self.i += 1;
                    } else {
                        let rest = std::str::from_utf8(&self.s[self.i..]).expect("utf-8");
                        let c = rest.chars().next().expect("char");
                        out.push(c);
                        self.i += c.len_utf8();
                    }
                }
                self.i += 1;
                Json::Str(out)
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                Json::Num(text.parse().unwrap_or_else(|_| panic!("number {text:?}")))
            }
        }
    }
}

fn parse(text: &str) -> Json {
    let mut r = Reader {
        s: text.as_bytes(),
        i: 0,
    };
    let v = r.value();
    r.ws();
    assert_eq!(r.i, text.len(), "trailing bytes");
    v
}

fn read(rel: &str) -> Json {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}")))
}

fn benchmark() -> Json {
    read("../BENCHMARK.json")
}

fn check_metrics(declared: &Json, registry: &[MetricDef], bound: bool) {
    let mut listed = BTreeMap::new();
    for m in declared.arr() {
        let keys: BTreeSet<&str> = m.keys().into_iter().collect();
        let want: BTreeSet<&str> = if bound {
            ["name", "unit", "better", "bound"].into()
        } else {
            ["name", "unit", "better"].into()
        };
        assert_eq!(keys, want, "keys of {m:?}");
        if bound {
            let b = m.get("bound").num();
            assert!(b > 0.0 && b <= 0.25, "bound {b}");
        }
        assert!(
            listed
                .insert(m.get("name").str().to_string(), m.clone())
                .is_none(),
            "duplicate {}",
            m.get("name").str()
        );
    }
    let names: BTreeSet<&str> = listed.keys().map(String::as_str).collect();
    let registered: BTreeSet<&str> = registry.iter().map(|d| d.name).collect();
    assert_eq!(names, registered, "BENCHMARK.json vs the metric registry");
    for d in registry {
        let m = &listed[d.name];
        assert_eq!(m.get("unit").str(), d.unit, "{}", d.name);
        assert_eq!(m.get("better").str(), d.better.as_str(), "{}", d.name);
    }
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let b = benchmark();
    let keys: BTreeSet<&str> = b.keys().into_iter().collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
        .into()
    );
    check_metrics(b.get("end_to_end"), END_TO_END, true);
    check_metrics(b.get("per_layer"), PER_LAYER, false);
    let setup = b
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is declared");
    let largest = b
        .get("end_to_end")
        .arr()
        .iter()
        .map(|m| m.get("bound").num())
        .fold(0.0, f64::max);
    assert_eq!(
        setup.get("bound").num(),
        largest,
        "setup_s has the largest bound"
    );
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "{}", d.name);
    }
}

#[test]
fn benchmark_json_workloads_and_command() {
    let b = benchmark();
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| {
            let keys: BTreeSet<&str> = w.keys().into_iter().collect();
            assert_eq!(keys, ["name", "why"].into());
            let why = w.get("why").str();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").str()
        })
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    let paths = b.get("paths").arr();
    assert_eq!(paths, [Json::Str("perfbench".into())]);
    let command: Vec<&str> = b.get("command").arr().iter().map(Json::str).collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command.contains(&"perfbench/Cargo.toml"));
    let seconds = b.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
}

#[test]
fn every_layer_metric_names_an_end_to_end_metric_and_workload() {
    let layers = read("layers.json");
    let map = layers.get("layers");
    let mapped: BTreeSet<&str> = map.keys().into_iter().collect();
    let registered: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(mapped, registered, "layers.json vs the per-layer registry");
    let e2e: BTreeSet<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let workloads: BTreeSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    for name in map.keys() {
        let entry = map.get(name);
        let moves = entry.get("moves").str();
        assert!(e2e.contains(moves), "{name} moves unknown metric {moves:?}");
        let on = entry.get("workloads").arr();
        assert!(!on.is_empty(), "{name} names no workload");
        for w in on {
            assert!(
                workloads.contains(w.str()),
                "{name}: unknown workload {:?}",
                w.str()
            );
        }
        assert!(!entry.get("why").str().is_empty(), "{name} has no reason");
    }
}

#[test]
fn the_reader_parses_what_the_benchmark_prints() {
    let mut r = perfbench::metrics::Report::new(END_TO_END);
    for (i, d) in END_TO_END.iter().enumerate() {
        r.set(d.name, 1.5 + i as f64);
    }
    let line = parse(&r.to_json(true, 7, 0));
    assert_eq!(line.get("correct"), &Json::Bool(true));
    assert_eq!(line.get("attempted").num(), 7.0);
    assert_eq!(line.get("metrics").keys().len(), END_TO_END.len());
    assert_eq!(line.get("metrics").get("setup_s").get("unit").str(), "s");
}
