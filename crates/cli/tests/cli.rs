//! End-to-end tests of the `gblas-cli` binary.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    run_env(args, &[])
}

/// Run the binary with exactly the `GBLAS_*` variables in `env` set.
fn run_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gblas-cli"));
    for name in ["GBLAS_DIST_EXECUTOR", "GBLAS_SCHED", "GBLAS_WORKSPACE"] {
        cmd.env_remove(name);
    }
    let out = cmd.args(args).envs(env.iter().copied()).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn info_on_generated_graph() {
    let (ok, stdout, _) = run(&["info", "--gen", "er:2000:5", "--seed", "3"]);
    assert!(ok);
    assert!(stdout.contains("matrix: 2000x2000"));
    assert!(stdout.contains("out-degree"));
}

#[test]
fn bfs_with_simulation() {
    let (ok, stdout, _) = run(&["bfs", "--gen", "er:5000:8", "--source", "7", "--simulate", "4"]);
    assert!(ok);
    assert!(stdout.contains("bfs from 7"));
    assert!(stdout.contains("simulated on 4 Edison nodes"));
    assert!(stdout.contains("gather="));
}

#[test]
fn pagerank_prints_top_vertices() {
    let (ok, stdout, _) = run(&["pagerank", "--gen", "rmat:10:8"]);
    assert!(ok);
    assert!(stdout.contains("pagerank converged"));
    assert!(stdout.contains("#1"));
}

#[test]
fn cc_and_triangles_need_symmetry_flag_to_make_sense() {
    let (ok, stdout, _) = run(&["cc", "--gen", "er:3000:6", "--symmetrize"]);
    assert!(ok);
    assert!(stdout.contains("connected components"));
    let (ok2, stdout2, _) = run(&["triangles", "--gen", "er:1000:6", "--symmetrize"]);
    assert!(ok2);
    assert!(stdout2.contains("triangles"));
}

#[test]
fn sssp_reports_reachability() {
    let (ok, stdout, _) = run(&["sssp", "--gen", "er:2000:5", "--source", "0"]);
    assert!(ok);
    assert!(stdout.contains("sssp from 0"));
    assert!(stdout.contains("reachable"));
}

#[test]
fn reads_matrix_market_files() {
    // create a small file, then analyze it
    let dir = std::env::temp_dir().join("gblas_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.mtx");
    let a = gblas_core::gen::erdos_renyi(500, 4, 9);
    gblas_core::io::write_matrix_market_file(&path, &a).unwrap();
    let (ok, stdout, _) = run(&["info", "--input", path.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("matrix: 500x500"));
}

#[test]
fn traced_bfs_profiles_end_to_end() {
    let dir = std::env::temp_dir().join("gblas_cli_profile_test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("bfs.jsonl");
    let trace_arg = trace.to_str().unwrap();
    let (ok, stdout, _) =
        run(&["bfs", "--gen", "er:2000:8", "--simulate", "4", "--trace", trace_arg, "--seed", "3"]);
    assert!(ok);
    assert!(stdout.contains("slowest locale per phase:"), "got: {stdout}");
    assert!(trace.exists());

    // text report: imbalance, critical path, and a populated comm matrix
    let (ok, text, _) = run(&["profile", "--input", trace_arg]);
    assert!(ok);
    assert!(text.contains("load imbalance"), "got: {text}");
    assert!(text.contains("critical path"));
    assert!(text.contains("communication matrix"));
    assert!(text.contains("spmspv_dist/gather"));

    // the comm-matrix byte total must equal the run's bytes_sent counter
    let metrics_bytes: u64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("bytes_sent"))
        .expect("metrics dump present")
        .trim()
        .parse()
        .unwrap();
    assert!(
        text.contains(&format!("total: {metrics_bytes} bytes")),
        "profile bytes must match metrics bytes_sent={metrics_bytes}: {text}"
    );

    // JSON profile parses and markdown renders tables
    let (ok, json, _) = run(&["profile", "--input", trace_arg, "--format", "json"]);
    assert!(ok);
    assert!(json.starts_with("{\"schema\":\"gblas-profile-v1\""), "got: {json}");
    assert!(json.contains(&format!("\"total_bytes\":{metrics_bytes}")));
    let (ok, md, _) = run(&["profile", "--input", trace_arg, "--format", "markdown"]);
    assert!(ok);
    assert!(md.contains("## Critical path"));

    // bad format and missing input fail cleanly
    let (ok, _, stderr) = run(&["profile", "--input", trace_arg, "--format", "xml"]);
    assert!(!ok);
    assert!(stderr.contains("bad --format"));
    let (ok, _, stderr) = run(&["profile"]);
    assert!(!ok);
    assert!(stderr.contains("--input"));
}

#[test]
fn errors_are_clean_not_panics() {
    let (ok, _, stderr) = run(&["bogus-command", "--gen", "er:10:2"]);
    assert!(!ok);
    assert!(stderr.contains("error:"));
    let (ok2, _, stderr2) = run(&["bfs"]);
    assert!(!ok2);
    assert!(stderr2.contains("error:"));
    let (ok3, _, stderr3) = run(&["bfs", "--gen", "nonsense"]);
    assert!(!ok3);
    assert!(stderr3.contains("error:"));
    // 2^64 vertices: rejected at parsing, not a shift overflow in the generator
    let (ok4, _, stderr4) = run(&["bfs", "--gen", "rmat:64:1"]);
    assert!(!ok4);
    assert!(stderr4.contains("error:") && stderr4.contains("do not fit"), "got: {stderr4}");
    // the merge is a concrete choice: there is no `auto` to resolve
    let (ok6, _, stderr6) = run(&["bfs", "--gen", "er:100:4", "--spmspv-merge", "auto"]);
    assert!(!ok6);
    assert!(stderr6.contains("error:") && stderr6.contains("sort|bucket"), "got: {stderr6}");
    let (ok7, help, _) = run(&["--help"]);
    assert!(ok7 && help.contains("--spmspv-merge sort|bucket"), "got: {help}");
    // zero nodes is no grid: rejected at parsing, not an assertion in the grid
    let (ok8, _, stderr8) = run(&["bfs", "--gen", "rmat:8:4", "--simulate", "0"]);
    assert!(!ok8);
    assert!(stderr8.contains("--simulate must be at least 1"), "got: {stderr8}");
    assert!(!stderr8.contains("panicked"), "got: {stderr8}");
    for window in ["-1", "nan", "inf"] {
        let (ok5, _, stderr5) = run(&["serve-bench", "--gen", "er:100:4", "--window", window]);
        assert!(!ok5, "--window {window} must be rejected");
        assert!(stderr5.contains("bad --window"), "got: {stderr5}");
    }
    // a Matrix Market header is not trusted for allocation: each of these
    // few-byte files once aborted or panicked the process
    let dir = std::env::temp_dir().join("gblas_cli_header_test");
    std::fs::create_dir_all(&dir).unwrap();
    let headers = [
        ("general", "3 3 99999999999999999"),
        ("symmetric", "3 3 18446744073709551615"),
        ("general", "18446744073709551615 3 0"),
        ("general", "99999999999999 3 0"),
    ];
    for (k, (symmetry, size)) in headers.into_iter().enumerate() {
        let path = dir.join(format!("h{k}.mtx"));
        let text = format!("%%MatrixMarket matrix coordinate real {symmetry}\n{size}\n");
        std::fs::write(&path, text).unwrap();
        let (ok9, _, stderr9) = run(&["bfs", "--input", path.to_str().unwrap(), "--source", "0"]);
        assert!(!ok9, "{size}: must be rejected");
        assert!(stderr9.contains("error:"), "{size}: got: {stderr9}");
        assert!(!stderr9.contains("panicked"), "{size}: got: {stderr9}");
        assert!(!stderr9.contains("memory allocation of"), "{size}: got: {stderr9}");
    }
}

/// The environment variables are read by the binary's `main` and nowhere
/// else; the two whose effect a run prints must still reach the contexts
/// they configure (the executor leaves no mark on any output).
#[test]
fn env_knobs_take_effect_through_the_binary() {
    let dir = std::env::temp_dir().join("gblas_cli_env_test");
    std::fs::create_dir_all(&dir).unwrap();
    let traced = |name: &str, env: &[(&str, &str)]| {
        let trace = dir.join(name);
        let args = ["bfs", "--gen", "er:2000:8", "--simulate", "4", "--trace"];
        let (ok, stdout, _) = run_env(&[&args[..], &[trace.to_str().unwrap()]].concat(), env);
        assert!(ok);
        // the result line without its wall-clock parenthesis
        let result = stdout.lines().find(|l| l.starts_with("bfs from")).expect("result line");
        let result = result.split(" (").next().unwrap().to_string();
        let metric = |key: &str| -> u64 {
            let line = stdout.lines().find_map(|l| l.strip_prefix(key)).expect("metrics dump");
            line.trim().parse().unwrap()
        };
        let text = std::fs::read_to_string(&trace).unwrap();
        let scheds: Vec<String> = text
            .split("\"sched\":\"")
            .skip(1)
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect();
        (result, scheds, metric("pool_hits"))
    };
    let (result, scheds, hits) = traced("default.jsonl", &[]);
    assert_eq!(scheds[0], "built");
    assert!(scheds.len() > 1 && scheds[1..].iter().all(|s| s == "replayed"), "{scheds:?}");
    assert!(hits > 0);

    let (off_result, off_scheds, _) = traced("sched-off.jsonl", &[("GBLAS_SCHED", "off")]);
    assert_eq!(off_result, result);
    assert_eq!(off_scheds.len(), scheds.len());
    assert!(off_scheds.iter().all(|s| s == "off"), "{off_scheds:?}");

    let (ws_result, _, ws_hits) = traced("ws-off.jsonl", &[("GBLAS_WORKSPACE", "off")]);
    assert_eq!(ws_result, result);
    assert_eq!(ws_hits, 0, "GBLAS_WORKSPACE=off must disable every locale pool");
}
