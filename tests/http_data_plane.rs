//! Cross-crate test of the multi-model data plane: one server hosting
//! TPC-H and SSB in one [`ModelRegistry`], fetched whole over both the
//! TCP frame protocol and the HTTP/1.1 front end, with
//! `max_request_rows` set far below the table sizes so every fetch is a
//! chained sequence of clamped cursor tiles. The chained bytes must be
//! byte-equal to the row reference renderer's output for all four
//! formats — the determinism contract extended across models,
//! protocols, and the cursor tiling.

use pdgf::runtime::{render_reference, ServeConfig, TableJob};
use pdgf::{
    FetchRequest, ModelRegistry, OutputFormat, PdgfProject, ServeClient, Server, ServerOptions,
};
use workloads::{ssb, tpch};

const SF: f64 = 0.02;
const TPCH_TABLE: &str = "supplier";
const SSB_TABLE: &str = "customer";

/// A whole table rendered row at a time by the reference renderer.
fn reference(project: &PdgfProject, table: &str, format: OutputFormat) -> Vec<u8> {
    let rt = project.runtime();
    let (idx, t) = rt.table_by_name(table).expect("table exists");
    let mut out = Vec::new();
    render_reference(
        rt,
        &TableJob::full_table(idx, t.size),
        format.formatter().as_ref(),
        &mut out,
    );
    out
}

/// Reference bytes per (model, table, format), plus the table sizes,
/// computed from freshly built projects.
#[allow(clippy::type_complexity)]
fn references() -> (
    Vec<(&'static str, &'static str, OutputFormat, Vec<u8>)>,
    ModelRegistry,
    u64,
    u64,
) {
    let tpch_project = tpch::project(SF).build().unwrap();
    let ssb_project = ssb::project(SF).build().unwrap();
    let tpch_rows = tpch_project
        .runtime()
        .table_by_name(TPCH_TABLE)
        .expect("tpch table")
        .1
        .size;
    let ssb_rows = ssb_project
        .runtime()
        .table_by_name(SSB_TABLE)
        .expect("ssb table")
        .1
        .size;
    let mut refs = Vec::new();
    for format in OutputFormat::all() {
        refs.push((
            "tpch",
            TPCH_TABLE,
            format,
            reference(&tpch_project, TPCH_TABLE, format),
        ));
        refs.push((
            "ssb",
            SSB_TABLE,
            format,
            reference(&ssb_project, SSB_TABLE, format),
        ));
    }
    let registry = ModelRegistry::new()
        .register("tpch", tpch_project)
        .unwrap()
        .register("ssb", ssb_project)
        .unwrap();
    (refs, registry, tpch_rows, ssb_rows)
}

/// The engine's served tiles and the row reference renderer agree, over
/// both transports, for both models.
#[test]
fn two_model_registry_cursor_chains_tile_byte_equal_for_both_engines() {
    let (refs, registry, tpch_rows, ssb_rows) = references();
    // The cap forces every whole-table fetch through several cursor
    // hops (sizes are in the hundreds at this scale factor).
    assert!(tpch_rows > 97 && ssb_rows > 97, "tables big enough to tile");
    let options = ServerOptions::builder()
        .config(
            ServeConfig::new()
                .workers(2)
                .package_rows(64)
                .window(3)
                .max_request_rows(97),
        )
        .build()
        .unwrap();
    let server = Server::bind_registry(registry, "127.0.0.1:0", options, None)
        .unwrap()
        .with_http("127.0.0.1:0")
        .unwrap();
    let handle = server.spawn().unwrap();

    let mut tcp = ServeClient::connect(handle.addr()).unwrap();
    let mut http = ServeClient::connect_http(handle.http_addr().unwrap()).unwrap();
    for (model, table, format, whole) in &refs {
        let rows = if *model == "tpch" {
            tpch_rows
        } else {
            ssb_rows
        };
        let req = FetchRequest::range(table, 0, rows)
            .format(*format)
            .model(model);
        let over_tcp = tcp.fetch(req.clone()).unwrap();
        let over_http = http.fetch(req).unwrap();
        assert_eq!(
            &over_tcp,
            whole,
            "tcp {model}.{table} {}: chained tiles != reference",
            format.extension()
        );
        assert_eq!(
            over_http,
            over_tcp,
            "http {model}.{table} {}: transports disagree",
            format.extension()
        );
    }

    // The registry keeps per-model books: both slots saw requests,
    // and the model-addressed INFO endpoints resolve by name.
    let tpch_stats = handle.stats_of(0).expect("slot 0 exists");
    let ssb_stats = handle.stats_of(1).expect("slot 1 exists");
    assert!(tpch_stats.completed > 0, "tpch slot served requests");
    assert!(ssb_stats.completed > 0, "ssb slot served requests");
    assert_eq!(
        handle.stats().completed,
        tpch_stats.completed + ssb_stats.completed,
        "global counters are the sum of the per-model ones"
    );
    assert!(tcp.info_of("ssb").unwrap().contains(SSB_TABLE));
    assert!(http.info_of("tpch").unwrap().contains(TPCH_TABLE));
    handle.stop();
}
